package main

import (
	"time"

	"rsskv/internal/server"
	"rsskv/internal/workload"
)

// Every size, rate and count the benchmark uses is a constant in this
// file, not a flag: two commits cannot be measured with different settings
// by accident. BENCHMARK.json carries the workload names, the metric names
// and their bounds; bench/README.md explains each choice.
const (
	numShards  = 4
	numClients = 2 // client goroutines, one connection each (nproc = 2)
	valueLen   = 32

	// hotKeys is contended-ro's key range, the low end of the same
	// preloaded keyspace.
	hotKeys = 64

	// openRate is open-durable's fixed Poisson arrival rate in
	// transactions per second; openSlots bounds its in-flight operations,
	// multiplexed over the same numClients pipelined connections. A
	// healthy stack has one or two in flight; the slots are what a stall
	// may queue before arrivals are dropped, 1.7 s of them. The box itself
	// stalls for up to half a second now and then: the issue's 64 slots
	// dropped arrivals in 3 runs of 70, and 256 still did in 1 of 26.
	openRate  = 600
	openSlots = 1024

	preloadBatch = 500 // keys per preload MultiPut frame

	// defaultSeconds is the measured window; BENCHMARK.json's run_seconds
	// is the same number.
	defaultSeconds = 15
)

// sizes are the knobs that scale with the run: the full benchmark uses
// fullSizes, the smoke test a hundredth of it.
type sizes struct {
	keys      int           // preloaded keyspace
	verifyOps int           // operations in the RSS-checked verification slice
	twinOps   int           // operations against the stale-reads chaos twin
	warmup    time.Duration // unrecorded closed-loop traffic before the window
	settleOps int           // further unrecorded transactions on a replicated stack, after the last set-up
	slice     time.Duration // length of one measured slice
	setups    int           // set-ups per untraced run; setup_s is their median
	replayOps int           // generated transactions fed to each layer in isolation
}

var fullSizes = sizes{
	keys:      250_000,
	verifyOps: 1200,
	twinOps:   400,
	// The warm-up is a fixed time and most of a set-up, on purpose: the
	// box's speed drifts by a third from one half hour to the next, and
	// setup_s, which must stay within 0.25 between two sets of runs, can
	// only do so if the part of it that is work is the smaller part.
	warmup:    2 * time.Second,
	settleOps: 8000,
	slice:     time.Second,
	setups:    3,
	replayOps: 4000,
}

// spec is one workload: the stack it stands up and the traffic it offers.
type spec struct {
	name string

	durable  bool          // DataDir on a real file system, fsync per apply batch
	replicas int           // copies per shard (ChanTransport followers)
	syncRepl bool          // responses wait for a follower ack
	eps      time.Duration // TrueTime uncertainty ε

	theta float64 // Zipf skew of key popularity
	hot   bool    // draw keys from the hotKeys low end instead of the whole keyspace
	open  bool    // open loop at openRate instead of numClients closed-loop clients

	chaos string // server fault injection; only the chaos twin sets it
}

var specs = []spec{
	{
		// In-memory stack, closed loop: only wire, netio, dispatch, locks and mvstore work; wal and replication must stay idle.
		name:     "mem-retwis",
		replicas: 1, theta: 0.75,
	},
	{
		// Same stream with fsync per apply batch and a synchronously acked follower: the wal and replication blocking path.
		name:    "durable-retwis",
		durable: true, replicas: 2, syncRepl: true, theta: 0.75,
	},
	{
		// 64 hot keys, eps=500us, fsync on: snapshot reads beside conflicting prepared writers, the paper's own regime.
		name:    "contended-ro",
		durable: true, replicas: 1, eps: 500 * time.Microsecond, theta: 0.9, hot: true,
	},
	{
		// The durable-retwis stack under Poisson arrivals at 600 tx/s: overlapping arrivals form apply and fsync batches.
		// No admission gate (the issue asked for one at 4x the rate): see "Left out" in README.md.
		name:    "open-durable",
		durable: true, replicas: 2, syncRepl: true, theta: 0.75, open: true,
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// serverConfig is the stack under the workload. The flush policy is the
// server's own and unchanged: one group commit (write + fsync) per apply
// batch, responses released only after the state they expose is durable.
func (w *spec) serverConfig(dataDir string) (server.Config, error) {
	cfg := server.Config{
		Shards:   numShards,
		Replicas: w.replicas,
		Epsilon:  w.eps,
	}
	if w.durable {
		cfg.DataDir = dataDir
		cfg.SyncRepl = w.syncRepl
	}
	err := cfg.ApplyChaosMode(w.chaos, func(string, ...any) {})
	return cfg, err
}

// chooser is the workload's key-popularity distribution over the
// preloaded keyspace.
func (w *spec) chooser(sz sizes) workload.KeyChooser {
	if w.hot {
		n := hotKeys
		if n > sz.keys {
			n = sz.keys
		}
		return workload.NewZipf(uint64(n), w.theta)
	}
	return workload.Scrambled(workload.NewZipf(uint64(sz.keys), w.theta))
}
