// Out-of-process followers and the catch-up protocol.
//
// A Node is the follower side of SockTransport: a process (rsskvd
// -mode=replica) holding one replica per leader shard. It joins by dialing
// the leader and pulling log entries (OpReplEntry) per shard; the leader
// dials back to the node's read listener to serve snapshot reads
// (OpReplRead). Apply progress flows to the leader on dedicated OpReplAck
// messages, so the ack path can fail independently of replication — the
// DropAcks half of the failure matrix.
//
// Because a socketed follower can disconnect and rejoin, the pull protocol
// has the two cases an in-process channel never needed:
//
//   - truncation: the leader retains only a bounded log suffix (Group's
//     retention cap and the min acked position), so a pull below the
//     suffix answers ErrMsgSnapshotRequired;
//   - snapshot catch-up: the follower then fetches a consistent copy of
//     the shard store (every version it holds of every key — all that a
//     read at or above the leader's read floor can return, see Entry.Floor
//     — cut on the shard apply loop at log position S with safe-time
//     watermark W), installs it, and
//     resumes pulling the suffix after S. Replay after a full-state
//     snapshot is exactly correct: the store equals the leader's at S, and
//     entries S+1… re-derive everything later.
package replication

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rsskv/internal/mvstore"
	"rsskv/internal/netio"
	"rsskv/internal/obs"
	"rsskv/internal/truetime"
	"rsskv/internal/wire"
)

// Catch-up protocol defaults, shared by Node and the leader-side handlers
// in internal/server.
const (
	// NodeMaxFrame bounds frames on the node's leader connection. Catch-up
	// snapshots carry a whole shard store in one frame, so this is far
	// above the serving default (the writer never enforces the reader's
	// limit, which is what lets the two ends differ).
	NodeMaxFrame = 64 << 20
	// PullBatch is the max entries per OpReplEntry response.
	PullBatch = 512
	// PullWait is the leader-side long-poll: how long a caught-up pull
	// waits for the next append before returning an empty batch.
	PullWait = 50 * time.Millisecond
	// readPark is how long a node parks an OpReplRead waiting for its
	// applied watermark to cover the read timestamp. Longer than the
	// leader's routing timeout: the leader gives up first and falls back.
	readPark = 100 * time.Millisecond
)

// errMsgBelowFloor is the Err of an OpReplRead the node refused because the
// read arrived below the shard replica's read floor (replica.serve). The
// leader's SockTransport counts it when the answer still finds it waiting.
const errMsgBelowFloor = "read below the replica's floor"

// ServePull answers one OpReplEntry request from the group's retained log,
// long-polling up to PullWait when the follower is caught up. shards is
// the leader's shard count, echoed in every response's TxnID so a joining
// node can discover the topology from its first pull. An empty response
// carries the group's newest watermark in Version: heartbeats are not
// retained in the log, so this is how a caught-up follower's t_safe
// tracks real time (safe exactly because the follower held the whole log
// when the watermark was captured).
func (g *Group) ServePull(req *wire.Request, shards int) *wire.Response {
	resp := &wire.Response{ID: req.ID, Op: req.Op, TxnID: uint64(shards), Seq: req.Seq, Epoch: g.Epoch()}
	es, wm, ok := g.WaitEntriesAfter(req.Seq, PullBatch, PullWait)
	if !ok {
		resp.Err = wire.ErrMsgSnapshotRequired
		return resp
	}
	resp.OK = true
	if len(es) == 0 {
		resp.Version = int64(wm)
		return resp
	}
	wes := make([]wire.ReplEntry, len(es))
	for i, e := range es {
		wes[i] = wire.ReplEntry{
			Seq: e.Seq, Kind: uint8(e.Kind), TxnID: e.TxnID,
			TS: int64(e.TS), Watermark: int64(e.Watermark), Floor: int64(e.Floor),
			Epoch: e.Epoch, Writes: e.Writes,
		}
	}
	resp.Value = string(wire.AppendReplEntries(nil, wes))
	resp.Seq = es[len(es)-1].Seq
	return resp
}

// SnapshotResponse renders a catch-up snapshot: vals is every version of
// every key in the shard store, cut at log position seq with safe-time
// watermark w (all three taken together on the shard apply loop, the
// single appender, so they are mutually consistent).
func SnapshotResponse(req *wire.Request, vals []wire.ReplVal, seq uint64, w truetime.Timestamp, shards int) *wire.Response {
	return &wire.Response{
		ID: req.ID, Op: req.Op, OK: true, TxnID: uint64(shards),
		Seq: seq, Version: int64(w),
		Value: string(wire.AppendReplVals(nil, vals)),
	}
}

// NodeConfig parameterizes an out-of-process follower.
type NodeConfig struct {
	// Leader is the leader daemon's address to join (required).
	Leader string
	// Addr is the node's read listener address (default 127.0.0.1:0).
	Addr string
	// Advertise is the address the leader dials back for reads; defaults
	// to the listener's address (with an unspecified host rewritten to
	// 127.0.0.1 — set Advertise explicitly on multi-host deployments).
	Advertise string
	// MaxFrame bounds frames on the leader connection (default
	// NodeMaxFrame; snapshots must fit in one frame).
	MaxFrame int
	// ReadPark bounds how long an OpReplRead parks for its watermark
	// (default readPark).
	ReadPark time.Duration
	// Chaos is replica-side fault injection (delayed applies acknowledge
	// watermarks ahead of their applies — over this transport the lie
	// travels in OpReplAck messages).
	Chaos Chaos
}

// Node is one out-of-process follower process: a replica per leader shard,
// pullers draining the leader's logs, ack senders reporting applied
// progress, and a listener serving follower reads.
type Node struct {
	cfg   NodeConfig
	adv   string
	nonce string

	ln   net.Listener
	reps []*replica
	acks []*ackState

	quit   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	// pullQuit stops the pullers and ack senders without touching the
	// read listener — the promotion path: a candidate stops following its
	// dead leader but keeps answering OpView/OpMetrics.
	pullQuit    chan struct{}
	pullsClosed atomic.Bool
	pullWG      sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	pool  *netio.Pool // leader connection; swapped whole by Retarget

	// View state. maxEpoch is the highest view epoch seen in pulled
	// entries or pull responses; lastContact is when the leader last
	// answered a pull (unix nanos) — the lease the promotion monitor
	// watches. promoted marks this node's replica state handed over to a
	// promoted server: OpReplRead is refused from then on.
	maxEpoch    atomic.Uint64
	lastContact atomic.Int64
	promoted    atomic.Bool

	// lastFed is, per shard, the last log position the puller handed to
	// the replica's apply channel — what DrainApplied waits for.
	lastFed []atomic.Uint64
	// recent is, per shard, a bounded contiguous suffix of pulled entries
	// (reset on snapshot install), the seed a promotion hands to
	// Group.Restore so sibling replicas resync without full snapshots.
	recentMu sync.Mutex
	recent   [][]Entry

	// viewFn answers OpView and promoteFn OpPromote; installed by the
	// viewchange supervisor (nil hooks answer from the node's own state /
	// refuse promotion).
	hookMu    sync.Mutex
	viewFn    func() (epoch uint64, leader string)
	promoteFn func(epoch uint64, leader string) (uint64, string, error)

	// snapshots counts catch-up installs across shards (testing and
	// stats: a rejoin after truncation must show at least one).
	snapshots atomic.Int64
	pulls     atomic.Int64

	// Observability: the node's OpMetrics registry (served on the read
	// listener alongside OpReplRead) and the read-path instruments.
	reg       *obs.Registry
	readDur   *obs.Histogram
	readFails *obs.Counter
	reads     *obs.Counter
}

// newNodeMetrics builds the node's registry. Catalog:
//
//	node.pulls            ctr    entry batches pulled from the leader
//	node.snapshots        ctr    catch-up snapshots installed
//	node.reads            ctr    follower reads served
//	node.read_fails       ctr    follower reads the park gave up on
//	node.read_dur         hist   follower read duration (park included), ns
//	node.safe_time_age_ns gauge  min applied watermark's age across shards
//	node.fenced_drops     ctr    entries refused by the epoch fence floors
//	node.view_epoch       gauge  highest view epoch the node has seen
func (n *Node) newNodeMetrics() {
	r := obs.NewRegistry("replica@" + n.adv)
	r.CounterFunc("node.pulls", n.pulls.Load)
	r.CounterFunc("node.snapshots", n.snapshots.Load)
	r.CounterFunc("node.fenced_drops", n.FencedDrops)
	r.Gauge("node.view_epoch", func() int64 { return int64(n.maxEpoch.Load()) })
	r.Gauge("node.safe_time_age_ns", func() int64 {
		w := n.MinTSafe()
		if w <= 0 {
			return 0 // nothing applied yet; age would be since-epoch noise
		}
		return time.Now().UnixNano() - int64(w)
	})
	n.reg = r
	n.readDur = r.Hist("node.read_dur")
	n.reads = r.Counter("node.reads")
	n.readFails = r.Counter("node.read_fails")
}

// Metrics returns the node's registry snapshot (testing and stats).
func (n *Node) Metrics() *wire.MetricsPayload { return n.reg.Snapshot() }

// ackState coalesces a shard's acknowledgments: the replica loop records
// the newest applied position, a sender goroutine ships it. Bursts of
// applies collapse into one OpReplAck.
type ackState struct {
	mu    sync.Mutex
	seq   uint64
	w     truetime.Timestamp
	note  chan struct{} // buffered(1) change notification
	muted bool          // test hook: node-side ack silence
}

func (a *ackState) record(seq uint64, w truetime.Timestamp) {
	a.mu.Lock()
	if seq > a.seq {
		a.seq = seq
	}
	if w > a.w {
		a.w = w
	}
	muted := a.muted
	a.mu.Unlock()
	if muted {
		return
	}
	select {
	case a.note <- struct{}{}:
	default:
	}
}

// StartNode joins a node to its leader: listen, dial, discover the shard
// count from the first pull, and start the per-shard machinery. The
// returned node is catching up in the background; the leader routes reads
// to it once its acknowledged watermarks are fresh enough.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.Leader == "" {
		return nil, errors.New("replication: node needs a leader address")
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = NodeMaxFrame
	}
	if cfg.ReadPark <= 0 {
		cfg.ReadPark = readPark
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:      cfg,
		ln:       ln,
		nonce:    newNonce(),
		quit:     make(chan struct{}),
		pullQuit: make(chan struct{}),
		conns:    map[net.Conn]struct{}{},
	}
	n.lastContact.Store(time.Now().UnixNano())
	n.adv = cfg.Advertise
	if n.adv == "" {
		n.adv = advertisable(ln.Addr())
	}
	n.newNodeMetrics()
	pool, err := netio.DialPool(cfg.Leader, 1, cfg.MaxFrame)
	if err != nil {
		ln.Close()
		return nil, err
	}
	n.pool = pool

	// Discovery: the first pull registers the node at the leader (which
	// dials back to adv) and reports the shard count. Its entries are
	// discarded — shard 0's puller re-pulls from scratch.
	resp, err := pool.Call(n.pullReq(0, 0))
	if err != nil {
		n.Close()
		return nil, fmt.Errorf("replication: join %s: %w", cfg.Leader, err)
	}
	if !resp.OK && resp.Err != wire.ErrMsgSnapshotRequired {
		n.Close()
		return nil, fmt.Errorf("replication: join %s: %s", cfg.Leader, resp.Err)
	}
	shards := int(resp.TxnID)
	if shards <= 0 || shards > 1<<16 {
		n.Close()
		return nil, fmt.Errorf("replication: leader reported implausible shard count %d", shards)
	}

	n.lastFed = make([]atomic.Uint64, shards)
	n.recent = make([][]Entry, shards)
	for i := 0; i < shards; i++ {
		r := newReplica(0, i, cfg.Chaos)
		a := &ackState{note: make(chan struct{}, 1)}
		r.onAck = a.record
		n.reps = append(n.reps, r)
		n.acks = append(n.acks, a)
		go r.loop()
	}
	for i := range n.reps {
		i := i
		n.pullWG.Add(2)
		go func() { defer n.pullWG.Done(); n.puller(i) }()
		go func() { defer n.pullWG.Done(); n.ackSender(i) }()
	}
	n.wg.Add(1)
	go func() { defer n.wg.Done(); n.serveReads() }()
	return n, nil
}

func newNonce() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// advertisable rewrites an empty or unspecified listen host (":7482",
// "0.0.0.0", "::") to loopback so the leader can dial it back on a single
// machine. Hostnames and concrete IPs pass through — a resolvable name is
// a perfectly good dial-back address.
func advertisable(addr net.Addr) string {
	host, port, err := net.SplitHostPort(addr.String())
	if err != nil {
		return addr.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

func (n *Node) pullReq(shard int, after uint64) *wire.Request {
	return &wire.Request{
		Op: wire.OpReplEntry, Key: n.adv, Value: n.nonce,
		TxnID: uint64(shard), Seq: after,
	}
}

// Addr returns the node's read listener address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Advertise returns the address the leader dials back (the node's
// identity in the leader's registry).
func (n *Node) Advertise() string { return n.adv }

// Shards returns how many shard replicas the node runs.
func (n *Node) Shards() int { return len(n.reps) }

// TSafe returns shard i's applied watermark — the replica's real t_safe.
func (n *Node) TSafe(i int) truetime.Timestamp {
	if i < 0 || i >= len(n.reps) {
		return 0
	}
	return n.reps[i].TSafe()
}

// MinTSafe returns the lowest applied watermark across shards (the node's
// overall staleness bound), 0 with no shards.
func (n *Node) MinTSafe() truetime.Timestamp {
	var min truetime.Timestamp
	for i, r := range n.reps {
		if ts := r.TSafe(); i == 0 || ts < min {
			min = ts
		}
	}
	return min
}

// Snapshots returns how many catch-up snapshots the node has installed.
func (n *Node) Snapshots() int64 { return n.snapshots.Load() }

// Pulls returns how many entry batches the node has pulled.
func (n *Node) Pulls() int64 { return n.pulls.Load() }

// MuteAcks is the node-side ack-silence hook (the leader-side hook is
// SockTransport.DropAcks): replicas keep applying but stop shipping
// OpReplAck, so the leader's view of this node freezes.
func (n *Node) MuteAcks() {
	for _, a := range n.acks {
		a.mu.Lock()
		a.muted = true
		a.mu.Unlock()
	}
}

// leaderPool returns the node's current leader connection (swapped whole
// by Retarget, so callers re-read it every iteration).
func (n *Node) leaderPool() *netio.Pool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pool
}

// Retarget points the node's pulls and acks at a new leader address — a
// sibling replica following a promotion. The log seq space survives the
// view change (the promoted leader restores it via Group.Restore), so the
// puller keeps its position; a position the new leader's retained log
// cannot serve falls back to snapshot catch-up, same as any lagging rejoin.
func (n *Node) Retarget(addr string) error {
	pool, err := netio.DialPool(addr, 1, n.cfg.MaxFrame)
	if err != nil {
		return err
	}
	n.mu.Lock()
	old := n.pool
	n.pool = pool
	n.mu.Unlock()
	old.Close()
	n.lastContact.Store(time.Now().UnixNano())
	return nil
}

// puller drains one shard's log from the leader: pull a batch after the
// last held position, feed it to the replica in order, snapshot when the
// leader has truncated past us, retry on connection trouble (the pool
// redials lazily, so a restarted leader connection heals here).
func (n *Node) puller(shard int) {
	r := n.reps[shard]
	var last uint64
	backoff := func() bool {
		select {
		case <-n.pullQuit:
			return false
		case <-time.After(5 * time.Millisecond):
			return true
		}
	}
	// Snapshot failures back off exponentially: every retry makes the
	// leader dump and encode the whole shard store on its apply loop, so
	// a snapshot that persistently fails (e.g. a store grown past the
	// node's frame limit) must not become a tight leader-side loop.
	snapBackoff := 10 * time.Millisecond
	for {
		select {
		case <-n.pullQuit:
			return
		default:
		}
		resp, err := n.leaderPool().Call(n.pullReq(shard, last))
		if err != nil {
			if !backoff() {
				return
			}
			continue
		}
		n.lastContact.Store(time.Now().UnixNano())
		if resp.Epoch > 0 {
			n.raiseMaxEpoch(resp.Epoch)
		}
		if !resp.OK {
			if resp.Err == wire.ErrMsgSnapshotRequired {
				seq, err := n.snapshot(shard)
				if err != nil {
					select {
					case <-n.pullQuit:
						return
					case <-time.After(snapBackoff):
					}
					if snapBackoff *= 2; snapBackoff > 2*time.Second {
						snapBackoff = 2 * time.Second
					}
					continue
				}
				snapBackoff = 10 * time.Millisecond
				last = seq
				continue
			}
			if !backoff() {
				return
			}
			continue
		}
		n.pulls.Add(1)
		if resp.Value == "" {
			// Caught up: the empty response's watermark is a synthetic
			// heartbeat — we held the whole log when it was captured, so
			// every commit at or below it is applied here.
			if w := truetime.Timestamp(resp.Version); w > 0 {
				select {
				case r.ch <- []Entry{{Kind: EntryHeartbeat, Watermark: w}}:
				case <-n.pullQuit:
					return
				}
			}
			continue // the long poll paces us
		}
		wes, err := wire.DecodeReplEntries([]byte(resp.Value))
		if err != nil {
			if !backoff() {
				return
			}
			continue
		}
		// Decode the whole pull into one batch and hand it to the apply
		// loop in a single send, mirroring the leader-side batched append:
		// the replica applies it back-to-back and acks once at its tail.
		batch := make([]Entry, 0, len(wes))
		for _, we := range wes {
			if we.Seq != last+1 {
				// Gap (leader restarted, or we raced a truncation):
				// resync via snapshot on the next iteration.
				last = 0
				break
			}
			if we.Epoch > 0 {
				n.raiseMaxEpoch(we.Epoch)
			}
			batch = append(batch, Entry{
				Seq: we.Seq, Kind: EntryKind(we.Kind), TxnID: we.TxnID,
				TS: truetime.Timestamp(we.TS), Watermark: truetime.Timestamp(we.Watermark),
				Floor: truetime.Timestamp(we.Floor), Epoch: we.Epoch, Writes: we.Writes,
			})
			last = we.Seq
		}
		if len(batch) > 0 {
			select {
			case r.ch <- batch:
			case <-n.pullQuit:
				return
			}
			n.lastFed[shard].Store(last)
			n.keepRecent(shard, batch)
		}
	}
}

func (n *Node) raiseMaxEpoch(e uint64) {
	for {
		cur := n.maxEpoch.Load()
		if e <= cur || n.maxEpoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// keepRecent retains a bounded contiguous suffix of pulled entries for one
// shard — the seed a promotion hands to Group.Restore so sibling replicas
// resync from the log instead of full snapshots.
func (n *Node) keepRecent(shard int, batch []Entry) {
	n.recentMu.Lock()
	defer n.recentMu.Unlock()
	r := n.recent[shard]
	if len(r) > 0 && batch[0].Seq != r[len(r)-1].Seq+1 {
		r = r[:0] // contiguity broke (snapshot raced in); restart the suffix
	}
	r = append(r, batch...)
	if len(r) > DefaultRetain {
		r = append([]Entry(nil), r[len(r)-DefaultRetain:]...)
	}
	n.recent[shard] = r
}

// snapshot fetches and installs a catch-up snapshot for one shard,
// returning the log position replay resumes after.
func (n *Node) snapshot(shard int) (uint64, error) {
	resp, err := n.leaderPool().Call(&wire.Request{
		Op: wire.OpReplSnapshot, Key: n.adv, Value: n.nonce, TxnID: uint64(shard),
	})
	if err != nil {
		return 0, err
	}
	if !resp.OK {
		return 0, errors.New(resp.Err)
	}
	n.lastContact.Store(time.Now().UnixNano())
	if resp.Epoch > 0 {
		n.raiseMaxEpoch(resp.Epoch)
	}
	wvs, err := wire.DecodeReplVals([]byte(resp.Value))
	if err != nil {
		return 0, err
	}
	vals := make([]Val, len(wvs))
	for i, v := range wvs {
		vals[i] = Val{Key: v.Key, Value: v.Value, TS: truetime.Timestamp(v.TS)}
	}
	// Count before install: the install publishes the new watermark, and
	// observers (tests, stats) must not see the watermark advance with a
	// zero snapshot count.
	n.snapshots.Add(1)
	n.reps[shard].install(vals, resp.Seq, truetime.Timestamp(resp.Version))
	// The retained suffix predates the snapshot: drop it. Entries pulled
	// after resume the suffix from resp.Seq+1.
	n.recentMu.Lock()
	n.recent[shard] = n.recent[shard][:0]
	n.recentMu.Unlock()
	n.lastFed[shard].Store(resp.Seq)
	return resp.Seq, nil
}

// ackSender ships one shard's coalesced acknowledgments to the leader.
func (n *Node) ackSender(shard int) {
	a := n.acks[shard]
	for {
		select {
		case <-n.pullQuit:
			return
		case <-a.note:
		}
		a.mu.Lock()
		seq, w := a.seq, a.w
		a.mu.Unlock()
		resp, err := n.leaderPool().Call(&wire.Request{
			Op: wire.OpReplAck, Key: n.adv, Value: n.nonce,
			TxnID: uint64(shard), Seq: seq, TMin: int64(w),
		})
		_ = resp
		if err != nil {
			select {
			case <-n.pullQuit:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
}

// StopPulls stops the node's pullers and ack senders, leaving the read
// listener up — the fencing half of a promotion: the candidate stops
// following (and acknowledging) its old leader before it starts serving.
// Idempotent; blocks until the pull goroutines have exited.
func (n *Node) StopPulls() {
	if !n.pullsClosed.Swap(true) {
		close(n.pullQuit)
	}
	n.pullWG.Wait()
}

// DrainApplied waits until every shard replica has applied everything its
// puller fed it (or timeout passes), reporting whether the drain finished.
// Called after StopPulls, when lastFed is final, so a promotion extracts a
// store that reflects every pulled entry.
func (n *Node) DrainApplied(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		done := true
		for i := range n.reps {
			if n.reps[i].appliedSeq.Load() < n.lastFed[i].Load() {
				done = false
				break
			}
		}
		if done {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// ExtractShard hands shard i's replica state to a promotion: the store,
// the last applied log position, and the applied watermark, captured
// atomically on the apply loop. copyStore leaves the replica its own copy
// (the fencing-disabled chaos twin keeps applying the deposed feed).
func (n *Node) ExtractShard(i int, copyStore bool) (st *mvstore.Store, seq uint64, wm truetime.Timestamp) {
	return n.reps[i].extract(copyStore)
}

// RecentUpTo returns shard i's retained contiguous entry suffix ending at
// position upto (nil when the suffix doesn't reach or cover it) — the seed
// for the promoted leader's Group.Restore.
func (n *Node) RecentUpTo(i int, upto uint64) []Entry {
	n.recentMu.Lock()
	defer n.recentMu.Unlock()
	r := n.recent[i]
	if len(r) == 0 || upto == 0 {
		return nil
	}
	last := r[len(r)-1].Seq
	if last < upto || r[0].Seq > upto {
		return nil
	}
	cut := len(r) - int(last-upto)
	out := make([]Entry, cut)
	copy(out, r[:cut])
	return out
}

// RaiseEpochFloors fences every shard replica at epoch e: entries stamped
// with a lower epoch are dropped from then on.
func (n *Node) RaiseEpochFloors(e uint64) {
	for _, r := range n.reps {
		r.raiseEpochFloor(e)
	}
}

// FencedDrops sums entries refused by the epoch floors across shards.
func (n *Node) FencedDrops() int64 {
	var s int64
	for _, r := range n.reps {
		s += int64(r.fencedDrops.Load())
	}
	return s
}

// MarkPromoted records that the node's replica state was handed to a
// promoted server: OpReplRead is refused from then on (the authoritative
// store moved), while OpView and OpMetrics keep answering.
func (n *Node) MarkPromoted() { n.promoted.Store(true) }

// Promoted reports whether this node has been promoted.
func (n *Node) Promoted() bool { return n.promoted.Load() }

// LastContact returns when the leader last answered a pull (unix nanos) —
// the lease the promotion monitor watches.
func (n *Node) LastContact() int64 { return n.lastContact.Load() }

// MaxEpoch returns the highest view epoch the node has seen.
func (n *Node) MaxEpoch() uint64 { return n.maxEpoch.Load() }

// Registry returns the node's metrics registry, so the viewchange
// supervisor can add its instruments (view epoch, change duration) to the
// same scrape.
func (n *Node) Registry() *obs.Registry { return n.reg }

// SetViewHooks installs the handlers behind OpView and OpPromote on the
// read listener. Installed by the viewchange supervisor; with nil hooks
// the node answers OpView from its own state and refuses OpPromote.
func (n *Node) SetViewHooks(view func() (uint64, string), promote func(epoch uint64, leader string) (uint64, string, error)) {
	n.hookMu.Lock()
	n.viewFn = view
	n.promoteFn = promote
	n.hookMu.Unlock()
}

func (n *Node) serveView(req *wire.Request) *wire.Response {
	n.hookMu.Lock()
	view := n.viewFn
	n.hookMu.Unlock()
	resp := &wire.Response{ID: req.ID, Op: req.Op, OK: true}
	if view != nil {
		resp.Epoch, resp.Value = view()
	} else {
		resp.Epoch, resp.Value = n.maxEpoch.Load(), n.cfg.Leader
	}
	return resp
}

func (n *Node) servePromote(req *wire.Request) *wire.Response {
	n.hookMu.Lock()
	promote := n.promoteFn
	n.hookMu.Unlock()
	if promote == nil {
		return &wire.Response{ID: req.ID, Op: req.Op, Err: "replica does not accept promotion"}
	}
	epoch, leader, err := promote(req.Epoch, req.Value)
	if err != nil {
		return &wire.Response{ID: req.ID, Op: req.Op, Err: err.Error(), Epoch: epoch, Value: leader}
	}
	return &wire.Response{ID: req.ID, Op: req.Op, OK: true, Epoch: epoch, Value: leader}
}

// serveReads accepts the leader's dial-back connections and serves
// OpReplRead requests, each on its own goroutine so watermark parks
// overlap.
func (n *Node) serveReads() {
	for {
		nc, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if n.closed.Load() {
			n.mu.Unlock()
			nc.Close()
			return
		}
		n.conns[nc] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handleReadConn(nc)
		}()
	}
}

func (n *Node) handleReadConn(nc net.Conn) {
	cw := netio.NewConnWriter(nc)
	fr := wire.NewFrameReader(nc, wire.MaxFrame)
	var pending sync.WaitGroup
	for {
		req, err := fr.ReadRequest()
		if err != nil {
			break
		}
		if req.Op == wire.OpMetrics {
			cw.Send(obs.MetricsResponse(req, n.reg))
			continue
		}
		if req.Op == wire.OpView {
			cw.Send(n.serveView(req))
			continue
		}
		if req.Op == wire.OpPromote {
			// Promotion can take a while (drain + catch-up + server open);
			// answer on a goroutine so the connection keeps serving.
			pending.Add(1)
			go func(req *wire.Request) {
				defer pending.Done()
				cw.Send(n.servePromote(req))
			}(req)
			continue
		}
		if req.Op != wire.OpReplRead {
			cw.Send(&wire.Response{ID: req.ID, Op: req.Op, Err: "replica serves repl-read, view, promote, and metrics only"})
			continue
		}
		if n.promoted.Load() {
			// The authoritative store moved into the promoted server; a
			// read served from the frozen replica copy would be stale.
			cw.Send(&wire.Response{ID: req.ID, Op: req.Op, Err: "replica promoted", NotLeader: true})
			continue
		}
		shard := int(req.TxnID)
		if shard < 0 || shard >= len(n.reps) {
			cw.Send(&wire.Response{ID: req.ID, Op: req.Op, Err: "shard out of range"})
			continue
		}
		pending.Add(1)
		go func(req *wire.Request) {
			defer pending.Done()
			start := time.Now()
			vals, ok, _, belowFloor := n.reps[shard].Read(truetime.Timestamp(req.TMin), req.Keys, n.cfg.ReadPark)
			n.readDur.ObserveSince(start)
			if !ok {
				n.readFails.Inc()
				msg := "replica cannot serve"
				if belowFloor {
					msg = errMsgBelowFloor
				}
				cw.Send(&wire.Response{ID: req.ID, Op: req.Op, Err: msg})
				return
			}
			n.reads.Inc()
			wvs := make([]wire.ReplVal, len(vals))
			for i, v := range vals {
				wvs[i] = wire.ReplVal{Key: v.Key, Value: v.Value, TS: int64(v.TS)}
			}
			cw.Send(&wire.Response{
				ID: req.ID, Op: req.Op, OK: true,
				Value: string(wire.AppendReplVals(nil, wvs)),
			})
		}(req)
	}
	pending.Wait()
	cw.Close()
	n.mu.Lock()
	delete(n.conns, nc)
	n.mu.Unlock()
	nc.Close()
}

// Close stops the node: pullers and ack senders exit, the listener and
// every read connection drop (the leader's routed reads fail over), and
// the shard replicas drain.
func (n *Node) Close() {
	if n.closed.Swap(true) {
		return
	}
	close(n.quit)
	if !n.pullsClosed.Swap(true) {
		close(n.pullQuit)
	}
	n.ln.Close()
	n.mu.Lock()
	for nc := range n.conns {
		nc.Close()
	}
	n.mu.Unlock()
	n.leaderPool().Close()
	n.pullWG.Wait()
	n.wg.Wait()
	for _, r := range n.reps {
		close(r.ch)
	}
}
