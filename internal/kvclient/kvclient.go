// Package kvclient is the client driver for rsskvd. It maintains a small
// pool of TCP connections and pipelines requests: many operations from
// many goroutines share one connection, each tagged with a request ID, and
// a per-connection reader routes responses back as the server completes
// them (possibly out of order). Batched multi-key reads and writes travel
// as single frames and execute atomically server-side.
//
// Transactions are one-shot: Txn buffers a read set and a write set
// locally and ships both in a single Commit frame. A commit wounded by an
// older transaction is retried under the same transaction ID, which
// preserves its wound-wait age and makes the retry loop livelock-free.
//
// ReadOnly is the lock-free snapshot path (§5): it ships the key set with
// the session's minimum read timestamp t_min in one OpROTxn frame, and the
// server serves a consistent snapshot no older than t_min without touching
// the lock table — a read-only transaction can never be wounded and never
// queues behind writers. The client maintains t_min per session (§6),
// advancing it with every commit timestamp and snapshot timestamp it
// observes, which is what preserves the session's causality across
// snapshot reads; ResetSession starts a fresh session.
//
// The driver exposes the server's real-time fence through RealTimeFence,
// so a Client registers with the libRSS composition library (§4.1) like
// any other RSS service client. The fence response carries the server's
// current TrueTime upper bound, which is merged into t_min — after the
// fence, every snapshot read of this session (or of any session the t_min
// is propagated to, §4.2) reflects all pre-fence state, the Spanner-RSS
// fence guarantee of §5.1.
package kvclient

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rsskv/internal/core"
	"rsskv/internal/netio"
	"rsskv/internal/wire"
)

// ErrClosed reports an operation on a closed client (netio's sentinel, so
// errors.Is matches under either name).
var ErrClosed = netio.ErrClosed

// ErrOverloaded reports that the server's admission control rejected the
// operation on every attempt: the client backed off (honoring the
// server's retry-after hint) and retried up to overloadMaxAttempts times
// before giving up. A rejected operation never executed — the server
// touched no state for it — so the caller may safely retry later or shed
// the work. Match with errors.Is.
var ErrOverloaded = errors.New("kvclient: server overloaded")

// Overload retry policy: exponential backoff from overloadBackoffBase,
// floored by the server's RetryAfterUS hint, jittered to half its value
// to spread synchronized retries, capped at overloadBackoffCap per sleep
// and overloadMaxAttempts total.
const (
	overloadBackoffBase = 500 * time.Microsecond
	overloadBackoffCap  = 50 * time.Millisecond
	overloadMaxAttempts = 32
)

// overloadDelay computes the sleep before retrying an Overloaded
// response: the larger of the exponential schedule and the server's hint,
// capped, with uniform jitter in [d/2, d].
func overloadDelay(resp *wire.Response, attempt int) time.Duration {
	if attempt > 10 {
		attempt = 10 // 500µs << 10 is already past the cap
	}
	d := overloadBackoffBase << attempt
	if hint := time.Duration(resp.RetryAfterUS) * time.Microsecond; hint > d {
		d = hint
	}
	if d > overloadBackoffCap {
		d = overloadBackoffCap
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// Options parameterize Dial.
type Options struct {
	// Conns is the connection pool size (default 2).
	Conns int
	// MaxFrame bounds accepted response frames (default wire.MaxFrame).
	MaxFrame int
	// Fallbacks are additional view-query addresses — replica read
	// listeners and standby promote addresses — consulted (OpView) when the
	// current leader is unreachable, so a client survives a leader failover:
	// the highest-epoch view wins and future operations go to its leader.
	// Empty disables view resolution (the single-leader client).
	Fallbacks []string
}

// Client is a pooled, pipelined rsskvd client. It is safe for concurrent
// use by multiple goroutines; the pool (internal/netio) lazily redials a
// failed slot on its next use, so one broken connection degrades a
// long-lived client only until the server is reachable again.
//
// The client is view-aware: a NotLeader response (a fenced old leader
// redirecting) makes it adopt the new view — swap its pool to the promoted
// leader — and retry the operation, which the fenced server refused before
// touching any state. A transport error instead only triggers view
// resolution for FUTURE operations and is returned to the caller: the
// operation may have executed (its response died with the connection), so a
// transparent retry could double-apply it; recorded histories treat such
// operations as pending, exactly like operations in flight at a crash.
type Client struct {
	opts Options
	pool atomic.Pointer[netio.Pool]
	tmin atomic.Int64 // session minimum read timestamp (§5, Algorithm 1)

	mu    sync.Mutex // serializes pool swaps
	addr  string     // current leader address (under mu)
	epoch atomic.Uint64

	lastResolve atomic.Int64 // unix nanos of the last view resolution
}

// Dial connects to a server.
func Dial(addr string, opts Options) (*Client, error) {
	if opts.Conns <= 0 {
		opts.Conns = 2
	}
	pool, err := netio.DialPool(addr, opts.Conns, opts.MaxFrame)
	if err != nil {
		return nil, err
	}
	c := &Client{opts: opts, addr: addr}
	c.pool.Store(pool)
	return c, nil
}

// Close tears down every connection; in-flight calls fail with ErrClosed.
func (c *Client) Close() { c.pool.Load().Close() }

// Leader returns the address the client currently believes leads, and the
// highest view epoch it has adopted (0 before any redirect).
func (c *Client) Leader() (string, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addr, c.epoch.Load()
}

// Do sends one request on a pooled connection and waits for its response.
// Most callers want the typed helpers below; Do is the escape hatch for
// custom pipelines and performs no OK checking or view handling.
func (c *Client) Do(req *wire.Request) (*wire.Response, error) {
	return c.pool.Load().Call(req)
}

// notLeaderMaxRedirects bounds how many NotLeader redirects one operation
// follows before giving up (promotion still in progress, or a redirect
// loop between confused nodes).
const notLeaderMaxRedirects = 16

// adopt switches the client to a new leader address, refusing moves to a
// view older than one already adopted. It reports whether the client now
// points at addr.
func (c *Client) adopt(addr string, epoch uint64) bool {
	if addr == "" {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if epoch != 0 && epoch < c.epoch.Load() {
		return false
	}
	if epoch > c.epoch.Load() {
		c.epoch.Store(epoch)
	}
	if addr == c.addr {
		return true
	}
	pool, err := netio.DialPool(addr, c.opts.Conns, c.opts.MaxFrame)
	if err != nil {
		return false
	}
	old := c.pool.Swap(pool)
	// addr is a view into the response that named it (see package wire);
	// the client keeps it for good, so it keeps a copy.
	c.addr = strings.Clone(addr)
	old.Close() // in-flight calls on it fail and surface to their callers
	return true
}

// resolveView queries the fallback addresses for the current view and
// adopts the highest-epoch leader found. Rate-limited so a burst of failing
// operations does not multiply into a burst of view queries.
func (c *Client) resolveView() {
	if len(c.opts.Fallbacks) == 0 {
		return
	}
	now := time.Now().UnixNano()
	last := c.lastResolve.Load()
	if now-last < int64(50*time.Millisecond) || !c.lastResolve.CompareAndSwap(last, now) {
		return
	}
	var bestE uint64
	var bestAddr string
	for _, a := range c.opts.Fallbacks {
		resp, err := queryView(a, c.opts.MaxFrame)
		if err != nil || resp.Value == "" {
			continue
		}
		if resp.Epoch >= bestE {
			bestE, bestAddr = resp.Epoch, resp.Value
		}
	}
	if bestAddr != "" {
		c.adopt(bestAddr, bestE)
	}
}

// queryView asks one address (leader, fenced leader, or replica read
// listener — all serve OpView) who leads.
func queryView(addr string, maxFrame int) (*wire.Response, error) {
	pool, err := netio.DialPool(addr, 1, maxFrame)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	return pool.Call(&wire.Request{Op: wire.OpView})
}

// redirect handles one NotLeader response inside a retry loop: adopt the
// view it names (or resolve one from the fallbacks when it names none) and
// let the loop retry — the fenced server refused the operation before
// touching any state, so the retry cannot double-apply. Returns an error
// once the redirect budget is spent.
func (c *Client) redirect(req *wire.Request, resp *wire.Response, redirects *int) error {
	if *redirects++; *redirects > notLeaderMaxRedirects {
		return fmt.Errorf("kvclient: %v: %s (no reachable leader after %d redirects)",
			req.Op, resp.Err, notLeaderMaxRedirects)
	}
	if !c.adopt(resp.Value, resp.Epoch) {
		c.resolveView()
		// The new leader may still be mid-promotion; give it a beat.
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// do is Do plus server-error surfacing for the typed helpers. Overloaded
// responses — admission-control rejections, which executed nothing — are
// retried here under the backoff policy, so callers only ever see
// ErrOverloaded once the policy is exhausted.
func (c *Client) do(req *wire.Request) (*wire.Response, error) {
	redirects := 0
	for attempt := 0; ; attempt++ {
		resp, err := c.Do(req)
		if err != nil {
			// The operation may have executed (see the Client doc): surface
			// the error, but resolve the view so future operations redirect.
			c.resolveView()
			return nil, err
		}
		if resp.NotLeader {
			if err := c.redirect(req, resp, &redirects); err != nil {
				return nil, err
			}
			continue
		}
		if resp.Overloaded {
			if attempt+1 >= overloadMaxAttempts {
				return nil, fmt.Errorf("kvclient: %v: %w", req.Op, ErrOverloaded)
			}
			time.Sleep(overloadDelay(resp, attempt))
			continue
		}
		if !resp.OK {
			return nil, fmt.Errorf("kvclient: %v: %s", req.Op, resp.Err)
		}
		return resp, nil
	}
}

// TMin returns the session's minimum read timestamp: the floor below
// which no future snapshot read of this session will be served.
func (c *Client) TMin() int64 { return c.tmin.Load() }

// SetTMin merges an externally propagated causal constraint (§4.2), e.g.
// a timestamp received alongside an out-of-band message from another
// session. t_min only ever advances.
func (c *Client) SetTMin(t int64) {
	for {
		cur := c.tmin.Load()
		if t <= cur || c.tmin.CompareAndSwap(cur, t) {
			return
		}
	}
}

// ResetSession clears the session's causal context (§6: "The clients use
// a separate t_min for each session"): subsequent snapshot reads may be
// served from any snapshot the server currently considers safe.
func (c *Client) ResetSession() { c.tmin.Store(0) }

// Get reads key, returning its value ("" if never written) and the
// timestamp of the version read (0 if never written).
func (c *Client) Get(key string) (value string, version int64, err error) {
	resp, err := c.do(&wire.Request{Op: wire.OpGet, Key: key})
	if err != nil {
		return "", 0, err
	}
	c.SetTMin(resp.Version)
	return resp.Value, resp.Version, nil
}

// Put writes key=value, returning the commit timestamp.
func (c *Client) Put(key, value string) (version int64, err error) {
	resp, err := c.do(&wire.Request{Op: wire.OpPut, Key: key, Value: value})
	if err != nil {
		return 0, err
	}
	c.SetTMin(resp.Version)
	return resp.Version, nil
}

// ROResult is a snapshot read-only transaction's outcome.
type ROResult struct {
	// Vals maps each requested key to its value in the snapshot ("" for
	// keys with no version at or below the snapshot timestamp).
	Vals map[string]string
	// Vers maps each requested key to the commit timestamp of the version
	// observed (0 for keys with no version in the snapshot) — the version
	// witnesses that let merged crash histories re-seat writes whose
	// responses died with the server.
	Vers map[string]int64
	// Snapshot is the snapshot timestamp t_snap; it advances the
	// session's t_min.
	Snapshot int64
	// Follower reports that the read was served entirely by follower
	// replicas bounded by their replicated t_safe, with zero leader
	// involvement.
	Follower bool
}

// ReadOnly reads a batch of keys as a lock-free snapshot read-only
// transaction (§5): the server serves a consistent snapshot no older than
// the session's t_min, without lock acquisition — the read can never be
// wounded, never queues behind writers, and costs one round trip. It
// returns the values ("" for keys with no version in the snapshot) and
// the snapshot timestamp, which advances t_min.
func (c *Client) ReadOnly(keys ...string) (map[string]string, int64, error) {
	r, err := c.Snapshot(keys...)
	if err != nil {
		return nil, 0, err
	}
	return r.Vals, r.Snapshot, nil
}

// Snapshot is ReadOnly with the full result, including whether the read
// was served from follower replicas (a replicated server's t_safe path)
// rather than the shard leaders.
//
// The returned keys and values share one allocation per response (they
// are views into the decoded frame, see package wire): holding on to any
// of them keeps all of them. strings.Clone what you keep long-term.
func (c *Client) Snapshot(keys ...string) (ROResult, error) {
	resp, err := c.do(&wire.Request{Op: wire.OpROTxn, Keys: keys, TMin: c.TMin()})
	if err != nil {
		return ROResult{}, err
	}
	c.SetTMin(resp.Version)
	out := make(map[string]string, len(resp.KVs))
	vers := make(map[string]int64, len(resp.KVs))
	for i, kv := range resp.KVs {
		out[kv.Key] = kv.Value
		if i < len(resp.Vers) {
			vers[kv.Key] = resp.Vers[i]
		}
	}
	return ROResult{Vals: out, Vers: vers, Snapshot: resp.Version, Follower: resp.Follower}, nil
}

// MultiGet reads a batch of keys atomically under shared locks (a
// lock-based read-only transaction), returning their values and the
// transaction's timestamp. Aborts are retried internally. ReadOnly serves
// the same result from a snapshot without locks; MultiGet remains the
// strict-2PL baseline it is measured against.
func (c *Client) MultiGet(keys ...string) (map[string]string, int64, error) {
	out, _, version, err := c.MultiGetVers(keys...)
	return out, version, err
}

// MultiGetVers is MultiGet returning, additionally, the commit timestamp
// of each version observed — the per-key version witnesses recorded
// histories use to repair crash-orphaned writes.
func (c *Client) MultiGetVers(keys ...string) (map[string]string, map[string]int64, int64, error) {
	resp, err := c.retry(&wire.Request{Op: wire.OpMultiGet, Keys: keys})
	if err != nil {
		return nil, nil, 0, err
	}
	c.SetTMin(resp.Version)
	out := make(map[string]string, len(resp.KVs))
	vers := make(map[string]int64, len(resp.KVs))
	for i, kv := range resp.KVs {
		out[kv.Key] = kv.Value
		if i < len(resp.Vers) {
			vers[kv.Key] = resp.Vers[i]
		}
	}
	return out, vers, resp.Version, nil
}

// MultiPut writes a batch of keys atomically (a write-only transaction),
// returning the commit timestamp. Aborts are retried internally.
func (c *Client) MultiPut(kvs map[string]string) (int64, error) {
	batch := make([]wire.KV, 0, len(kvs))
	for k, v := range kvs {
		batch = append(batch, wire.KV{Key: k, Value: v})
	}
	sort.Slice(batch, func(i, j int) bool { return batch[i].Key < batch[j].Key })
	resp, err := c.retry(&wire.Request{Op: wire.OpMultiPut, KVs: batch})
	if err != nil {
		return 0, err
	}
	c.SetTMin(resp.Version)
	return resp.Version, nil
}

// Metrics scrapes the server's metrics registry (OpMetrics): counters,
// gauges, and log-bucket histograms, decoded from one response frame. All
// three daemon personalities (kv leader, queue service, replica read
// listener) answer it, so one helper covers the whole fleet.
func (c *Client) Metrics() (*wire.MetricsPayload, error) {
	resp, err := c.do(&wire.Request{Op: wire.OpMetrics})
	if err != nil {
		return nil, err
	}
	return wire.DecodeMetricsPayload([]byte(resp.Value))
}

// ScrapeMetrics dials addr, scrapes one metrics snapshot, and closes —
// the one-shot form for dashboards and CI smoke checks. maxFrame bounds
// the response frame (0 = the wire default).
func ScrapeMetrics(addr string, maxFrame int) (*wire.MetricsPayload, error) {
	c, err := Dial(addr, Options{Conns: 1, MaxFrame: maxFrame})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Metrics()
}

// Promote dials the replica read listener at addr and orders it to take
// over leadership of its shard group (OpPromote with no epoch and no
// leader named: the replica picks the next epoch and promotes itself,
// fencing the deposed leader unless it was started -no-fence). It
// returns the view the replica ended up in — the new epoch and the
// promoted server's serving address. Promotion is idempotent at the
// replica: a second order returns the already-installed view.
func Promote(addr string) (epoch uint64, leader string, err error) {
	c, err := Dial(addr, Options{Conns: 1})
	if err != nil {
		return 0, "", err
	}
	defer c.Close()
	resp, err := c.do(&wire.Request{Op: wire.OpPromote})
	if err != nil {
		return 0, "", err
	}
	return resp.Epoch, resp.Value, nil
}

// Fence invokes the server's real-time fence and waits for it. The fence
// timestamp it returns is merged into the session's t_min, extending the
// fence guarantee to the snapshot-read path: every later ReadOnly
// reflects all state the server applied before the fence.
func (c *Client) Fence() error {
	resp, err := c.do(&wire.Request{Op: wire.OpFence})
	if err != nil {
		return err
	}
	c.SetTMin(resp.Version)
	return nil
}

// RealTimeFence adapts Fence to the composition library's interface, so a
// Client registers with librss.Library like the simulated service clients.
func (c *Client) RealTimeFence() core.RealTimeFence {
	return core.FenceFunc(func(done func()) {
		// The composition protocol tolerates a failed fence no worse
		// than a crashed process; the caller's next operation will
		// surface the connection error.
		_ = c.Fence()
		done()
	})
}

// retry re-sends a transactional request until it is not wounded, reusing
// the server-assigned transaction ID (and therefore priority) across
// attempts. Wounds retry immediately (the wound-wait age makes the loop
// livelock-free); Overloaded rejections — which executed nothing — back
// off under the overload policy and count against its attempt budget.
func (c *Client) retry(req *wire.Request) (*wire.Response, error) {
	overloads, redirects := 0, 0
	for {
		resp, err := c.Do(req)
		if err != nil {
			c.resolveView()
			return nil, err
		}
		if resp.OK {
			return resp, nil
		}
		if resp.NotLeader {
			if err := c.redirect(req, resp, &redirects); err != nil {
				return nil, err
			}
			continue
		}
		if resp.Overloaded {
			if overloads++; overloads >= overloadMaxAttempts {
				return nil, fmt.Errorf("kvclient: %v: %w", req.Op, ErrOverloaded)
			}
			time.Sleep(overloadDelay(resp, overloads-1))
			continue
		}
		if resp.Err != wire.ErrMsgAborted {
			return nil, fmt.Errorf("kvclient: %v: %s", req.Op, resp.Err)
		}
		req.TxnID = resp.TxnID // keep wound-wait age across attempts
	}
}

// Txn is a one-shot transaction builder. Populate the read set with Read
// and the write set with Write, then Commit. A Txn is not safe for
// concurrent use.
type Txn struct {
	c        *Client
	id       uint64
	reads    []string
	kvs      []wire.KV
	readVers map[string]int64
}

// Begin reserves a transaction ID (its wound-wait priority) and returns a
// builder.
func (c *Client) Begin() (*Txn, error) {
	resp, err := c.do(&wire.Request{Op: wire.OpBeginTxn})
	if err != nil {
		return nil, err
	}
	return &Txn{c: c, id: resp.TxnID}, nil
}

// Read adds keys to the read set.
func (t *Txn) Read(keys ...string) *Txn {
	t.reads = append(t.reads, keys...)
	return t
}

// Write adds key=value to the write set (last value wins per key).
func (t *Txn) Write(key, value string) *Txn {
	t.kvs = append(t.kvs, wire.KV{Key: key, Value: value})
	return t
}

// Commit executes the transaction atomically: every read-set key is read
// and every write-set key written at one commit timestamp, with strict
// two-phase locking server-side. It retries wounds under the same ID and
// returns the read values and the commit timestamp.
//
// The returned keys and values share one allocation per response (they
// are views into the decoded frame, see package wire): holding on to any
// of them keeps all of them. strings.Clone what you keep long-term.
func (t *Txn) Commit() (reads map[string]string, version int64, err error) {
	resp, err := t.c.retry(&wire.Request{
		Op: wire.OpCommit, TxnID: t.id, Keys: t.reads, KVs: t.kvs,
	})
	if err != nil {
		return nil, 0, err
	}
	t.c.SetTMin(resp.Version)
	reads = make(map[string]string, len(resp.KVs))
	t.readVers = make(map[string]int64, len(resp.KVs))
	for i, kv := range resp.KVs {
		reads[kv.Key] = kv.Value
		if i < len(resp.Vers) {
			t.readVers[kv.Key] = resp.Vers[i]
		}
	}
	return reads, resp.Version, nil
}

// ReadVers returns, after Commit, the commit timestamp of each version
// the transaction's read set observed — the version witnesses recorded
// histories use to repair crash-orphaned writes.
func (t *Txn) ReadVers() map[string]int64 { return t.readVers }

// The pipelined connection machinery (one writer goroutine batching
// outbound frames, one reader routing responses by request ID) lives in
// internal/netio and is shared with the queue service's client.
