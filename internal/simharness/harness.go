// Package simharness runs any of the repository's nine mutual-exclusion
// protocols under virtual time, at scale and under faults: the real node
// state machines (core.Node with its epoch recovery for the DAG) on the
// repository's one simulator (internal/cluster over internal/sim),
// driven open-loop for a simulated duration while a schedule of crashes
// and partitions — part of the run's input, not an accident of timing —
// plays out. Nothing in a run ever sleeps or races — every handler
// executes on the clock's advancing goroutine, in deterministic (time,
// scheduling) order — so a thousand-node cluster living through
// simulated hours of churn completes in wall-clock
// milliseconds-to-seconds, and the same seed replays the same run byte
// for byte (see Harness.FormatTrace).
//
// What is specific to this package is the vocabulary, not the machine:
// time.Duration sizes, one seeded random stream per consumer, the fault
// schedules with their staggered detector verdicts, and, for the DAG
// alone, the recovery counts, path compression and the retained trace.
// The requester loop is workload.Open. The event loop, the
// network, the fault state and the invariant checker (single holder and
// strictly monotonic fencing per connectivity component, checked on
// every grant; a violation fails the Run) are the engine's — the ones
// the thesis experiments and the nine-protocol batteries run on in hop
// ticks — so the epoch recovery machinery is exercised on the code paths
// the live runtime executes, under schedules the Go scheduler cannot
// reshuffle, and what one grant allocates is what core allocates.
//
// A run is: New a Harness, Schedule any faults, Run a Workload, read
// the Report. A crash or partition needs a protocol that takes PeerDown
// verdicts (mutex.MembershipHandler); on any other the first verdict
// fails the run.
package simharness

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"dagmutex/internal/cluster"
	"dagmutex/internal/core"
	"dagmutex/internal/harness"
	"dagmutex/internal/mutex"
	"dagmutex/internal/sim"
	"dagmutex/internal/telemetry"
	"dagmutex/internal/topology"
	"dagmutex/internal/workload"
)

// Config sizes and seeds a virtual cluster.
type Config struct {
	// Algorithm is the protocol every member runs, any of
	// harness.Algorithms(); the zero value is harness.DAG.
	Algorithm harness.Algorithm
	// Nodes is the cluster size; members are IDs 1..Nodes.
	Nodes int
	// Topology names the logical tree, one of topology.Named's names
	// ("kary4" by default; "random" is seeded).
	Topology string
	// Holder is the initial token holder or coordinator (default 1).
	Holder mutex.ID
	// Seed drives everything stochastic: the random topology, per-message
	// link delays, workload think times and fault-verdict jitter, each
	// from its own stream (sim.Stream(Seed, name)), so a draw by one never
	// moves another's sequence. The same seed and schedule replay the same
	// run exactly.
	Seed int64
	// MinDelay and MaxDelay bound the uniform per-message link latency.
	// Defaults 200µs and 2ms.
	MinDelay, MaxDelay time.Duration
	// Compress enables Naimi–Trehel path compression on every node
	// (DAG only).
	Compress bool
	// Trace records the full structured trace stream (FormatTrace).
	// Costs memory proportional to the event count; leave off for
	// capacity runs. DAG only.
	Trace bool
}

// Workload is one open-loop run: a subset of nodes repeatedly request
// the critical section, hold it, release, think, and request again
// until the simulated duration elapses.
type Workload = workload.Open

// Report summarizes one Run.
type Report struct {
	Nodes        int           `json:"nodes"`
	Topology     string        `json:"topology"`
	Requesters   int           `json:"requesters"`
	Seed         int64         `json:"seed"`
	SimDuration  time.Duration `json:"sim_duration_ns"`
	WallDuration time.Duration `json:"wall_duration_ns"`
	Grants       int64         `json:"grants"`
	// Messages counts messages delivered (what MsgsPerGrant divides);
	// Dropped the rest (sim.Counts has both beside messages sent).
	Messages     int64   `json:"messages"`
	Dropped      int64   `json:"dropped"`
	MsgsPerGrant float64 `json:"msgs_per_grant"`
	MaxFence     uint64  `json:"max_fence"`
	// Recoveries counts probe rounds started; Regenerations counts lost
	// tokens minted anew (each implies a RegenerationJump fence jump).
	// Both read 0 for a protocol other than the DAG.
	Recoveries    int64 `json:"recoveries"`
	Regenerations int64 `json:"regenerations"`
	// Events counts the virtual-clock events the run fired (deliveries,
	// driver steps, faults and verdicts); WallDuration / Events is what
	// one event cost.
	Events uint64 `json:"events"`
}

// TraceRecord is one structured trace event stamped with its virtual
// time since the start of the run.
type TraceRecord struct {
	At time.Duration
	Ev telemetry.TraceEvent
}

// Harness is one virtual cluster. Not safe for concurrent use: every
// method runs on the goroutine that advances the clock (normally the
// test goroutine), which is also where every scheduled event fires.
type Harness struct {
	cfg  Config
	c    *cluster.Cluster
	tree *topology.Tree
	// The run's random streams, one per consumer (see New): a link delay
	// per send, a think time per request, a jitter per detector verdict.
	delay, think, verdict *rand.Rand

	ran bool

	maxFence   uint64 // highest fence granted in the main partition
	recoveries int64
	regens     int64
	trace      []TraceRecord
}

// New builds a virtual cluster per cfg: one node of cfg.Algorithm per
// tree vertex, the token (or coordinator) at cfg.Holder — for the tree
// protocols NEXT pointers oriented toward it, the Figure 5 INIT steady
// state — all wired to the simulated network.
func New(cfg Config) (*Harness, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("simharness: need at least one node, got %d", cfg.Nodes)
	}
	if cfg.Algorithm.Name == "" {
		cfg.Algorithm = harness.DAG
	}
	dag := cfg.Algorithm.Name == harness.DAG.Name
	if !dag && (cfg.Compress || cfg.Trace) {
		return nil, fmt.Errorf("simharness: compression and the trace are the dag's, not %s's", cfg.Algorithm.Name)
	}
	if cfg.Holder == mutex.Nil {
		cfg.Holder = 1
	}
	if cfg.MinDelay <= 0 {
		cfg.MinDelay = 200 * time.Microsecond
	}
	if cfg.MaxDelay < cfg.MinDelay {
		cfg.MaxDelay = 10 * cfg.MinDelay
	}
	// Every random consumer of the run has its stream here, named; the
	// order in which consumers draw decides nothing.
	tree, err := topology.Named(cfg.Topology, cfg.Nodes, sim.Stream(cfg.Seed, "topology"))
	if err != nil {
		return nil, fmt.Errorf("simharness: %w", err)
	}
	h := &Harness{cfg: cfg, tree: tree,
		delay:   sim.Stream(cfg.Seed, "delay"),
		think:   sim.Stream(cfg.Seed, "think"),
		verdict: sim.Stream(cfg.Seed, "verdict")}
	algo := cfg.Algorithm
	if dag {
		want := core.EventSet(1<<core.EventProbe | 1<<core.EventRegenerate)
		if cfg.Trace {
			want |= core.TracedEvents
		}
		opts := []core.Option{core.WithObserver(want, h.observe)}
		if cfg.Compress {
			opts = append(opts, core.WithPathCompression())
		}
		algo.Builder = func(id mutex.ID, env mutex.Env, mcfg mutex.Config) (mutex.Node, error) {
			return core.New(id, env, mcfg, opts...)
		}
	}
	h.c, err = harness.NewCluster(algo, tree, cfg.Holder,
		cluster.WithoutAutoRelease(),
		cluster.WithNetworkOptions(sim.WithLatency(h.linkDelay)))
	if err != nil {
		return nil, fmt.Errorf("simharness: %w", err)
	}
	h.c.OnGrant(h.granted)
	return h, nil
}

// Topology returns the logical tree the cluster was built on.
func (h *Harness) Topology() *topology.Tree { return h.tree }

// observe counts every node's probe rounds and regenerations and, when
// Config.Trace is set, retains the trace stream. An untraced run
// subscribes to those two kinds alone, so it builds no other event.
func (h *Harness) observe(e core.Event) {
	switch e.Kind {
	case core.EventProbe:
		h.recoveries++
	case core.EventRegenerate:
		h.regens++
	}
	if h.cfg.Trace {
		h.trace = append(h.trace, TraceRecord{At: time.Duration(h.c.Now()), Ev: e.Trace()})
	}
}

// linkDelay is the harness's latency model: a uniform per-message delay
// in [MinDelay, MaxDelay) from the delay stream; no draw for a zero span.
func (h *Harness) linkDelay(_, _ mutex.ID) sim.Time {
	d := h.cfg.MinDelay
	if span := h.cfg.MaxDelay - d; span > 0 {
		d += time.Duration(h.delay.Int63n(int64(span)))
	}
	return sim.Time(d)
}

// granted tracks the highest fence granted in the main partition (the
// engine has already checked the grant; workload.Open releases it).
func (h *Harness) granted(g cluster.Grant) {
	if h.c.Side(g.Node) == 0 {
		h.maxFence = g.Generation
	}
}

// start installs w on the cluster — everything of a run that happens
// before time moves — and returns it with its defaults filled in.
func (h *Harness) start(w Workload) (Workload, error) {
	if h.ran {
		return w, fmt.Errorf("simharness: harness already ran")
	}
	h.ran = true
	w, err := w.Install(h.c, h.think)
	if err != nil {
		return w, fmt.Errorf("simharness: %w", err)
	}
	return w, nil
}

// Run executes w against the cluster: starts the drivers, advances the
// virtual clock through w.Duration (firing every delivery, driver step
// and scheduled fault in deterministic order), and reports. Any
// invariant violation or protocol error fails the run.
func (h *Harness) Run(w Workload) (Report, error) {
	w, err := h.start(w)
	if err != nil {
		return Report{}, err
	}

	start := time.Now()
	events, err := h.c.RunFor(sim.Time(w.Duration))
	wall := time.Since(start)

	counts := h.c.Counts()
	r := Report{
		Nodes:         h.cfg.Nodes,
		Topology:      h.tree.Name(),
		Requesters:    w.Requesters,
		Seed:          h.cfg.Seed,
		SimDuration:   w.Duration,
		WallDuration:  wall,
		Grants:        int64(h.c.Entries()),
		Messages:      counts.Delivered,
		Dropped:       counts.Dropped,
		MaxFence:      h.maxFence,
		Recoveries:    h.recoveries,
		Regenerations: h.regens,
		Events:        events,
	}
	if r.Grants > 0 {
		r.MsgsPerGrant = float64(r.Messages) / float64(r.Grants)
	}
	if err != nil {
		return r, fmt.Errorf("simharness: %w", err)
	}
	return r, nil
}

// Trace returns the retained trace records (Config.Trace must be set).
func (h *Harness) Trace() []TraceRecord { return h.trace }

// FormatTrace renders the retained trace deterministically, one line
// per event: virtual timestamp plus the shared telemetry vocabulary.
// Two runs with the same Config, Workload and fault schedule produce
// byte-identical output — the determinism contract the replay tests
// pin.
func (h *Harness) FormatTrace() string {
	var b strings.Builder
	for _, r := range h.trace {
		fmt.Fprintf(&b, "t=%s %s\n", r.At, r.Ev.String())
	}
	return b.String()
}
