// Package simharness runs the full DAG-mutex protocol stack under
// virtual time, at scale and under faults: real core.Node state machines
// on the repository's one simulator (internal/cluster over internal/sim),
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
// time.Duration sizes, one seeded random stream, the open-loop workload
// driver, the fault schedules with their staggered detector verdicts,
// and the retained trace. The event loop, the network, the fault state
// and the invariant checker (single holder and strictly monotonic
// fencing per connectivity component, checked on every grant; a
// violation fails the Run) are the engine's — the ones the thesis
// experiments and the nine-protocol batteries run on in hop ticks — so
// the epoch recovery machinery is exercised on the code paths the live
// runtime executes, under schedules the Go scheduler cannot reshuffle,
// and what one grant allocates is what core allocates.
//
// A run is: New a Harness, Schedule any faults, Run a Workload, read
// the Report.
package simharness

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"dagmutex/internal/cluster"
	"dagmutex/internal/core"
	"dagmutex/internal/mutex"
	"dagmutex/internal/sim"
	"dagmutex/internal/telemetry"
	"dagmutex/internal/topology"
)

// Config sizes and seeds a virtual cluster.
type Config struct {
	// Nodes is the cluster size; members are IDs 1..Nodes.
	Nodes int
	// Topology names the logical tree: "kary4" (default), "kary2"
	// (alias "binary"), "kary8", "line", "star", "radial" or "random"
	// (seeded).
	Topology string
	// Holder is the initial token holder (default 1).
	Holder mutex.ID
	// Seed drives everything stochastic: the random topology, per-message
	// link delays, workload think times and fault-verdict jitter. The
	// same seed and schedule replay the same run exactly.
	Seed int64
	// MinDelay and MaxDelay bound the uniform per-message link latency.
	// Defaults 200µs and 2ms.
	MinDelay, MaxDelay time.Duration
	// Compress enables Naimi–Trehel path compression on every node.
	Compress bool
	// Trace records the full structured trace stream (FormatTrace).
	// Costs memory proportional to the event count; leave off for
	// capacity runs.
	Trace bool
}

// Workload is one open-loop run: a subset of nodes repeatedly request
// the critical section, hold it, release, think, and request again
// until the simulated duration elapses.
type Workload struct {
	// Duration is the simulated run length.
	Duration time.Duration
	// Requesters is how many nodes drive requests (0 = every node),
	// spread evenly across the ID range.
	Requesters int
	// Think is the mean idle time between a release and the node's next
	// request (exponentially distributed). Default 1s.
	Think time.Duration
	// Hold is the critical-section residence time. Default 5ms.
	Hold time.Duration
}

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
	// rng is the run's one random stream, drawn in a fixed order: the
	// topology; a link delay per send (once the fault state let it
	// through); a think time after each release has sent its messages; the
	// verdict jitter in member order.
	rng *rand.Rand

	wl  Workload // the active workload, set once by Run
	ran bool

	maxFence   uint64 // highest fence granted in the main partition
	recoveries int64
	regens     int64
	trace      []TraceRecord
}

// New builds a virtual cluster per cfg: one core.Node per tree vertex,
// the token at cfg.Holder, NEXT pointers oriented toward it (the
// Figure 5 INIT steady state), all wired to the simulated network.
func New(cfg Config) (*Harness, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("simharness: need at least one node, got %d", cfg.Nodes)
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
	rng := rand.New(rand.NewSource(cfg.Seed))
	tree, err := buildTree(cfg.Topology, cfg.Nodes, rng)
	if err != nil {
		return nil, err
	}
	h := &Harness{cfg: cfg, tree: tree, rng: rng}
	opts := []core.Option{core.WithEventObserver(h.recovery)}
	if cfg.Trace {
		opts = append(opts, core.WithTraceObserver(h.record))
	}
	if cfg.Compress {
		opts = append(opts, core.WithPathCompression())
	}
	build := func(id mutex.ID, env mutex.Env, mcfg mutex.Config) (mutex.Node, error) {
		return core.New(id, env, mcfg, opts...)
	}
	h.c, err = cluster.New(build,
		mutex.Config{IDs: tree.IDs(), Holder: cfg.Holder, Parent: tree.ParentsToward(cfg.Holder)},
		cluster.WithoutAutoRelease(),
		cluster.WithNetworkOptions(sim.WithLatency(h.linkDelay)))
	if err != nil {
		return nil, fmt.Errorf("simharness: %w", err)
	}
	h.c.OnGrant(h.granted)
	h.c.OnRelease(h.released)
	return h, nil
}

func buildTree(name string, n int, rng *rand.Rand) (*topology.Tree, error) {
	switch name {
	case "", "kary4":
		return topology.KAry(n, 4), nil
	case "kary2", "binary":
		return topology.KAry(n, 2), nil
	case "kary8":
		return topology.KAry(n, 8), nil
	case "line":
		return topology.Line(n), nil
	case "star":
		return topology.Star(n), nil
	case "radial":
		return topology.Radial(n), nil
	case "random":
		return topology.Random(n, rng), nil
	}
	return nil, fmt.Errorf("simharness: unknown topology %q", name)
}

// Topology returns the logical tree the cluster was built on.
func (h *Harness) Topology() *topology.Tree { return h.tree }

// recovery counts every node's probe rounds and regenerations.
func (h *Harness) recovery(ev core.Event) {
	switch ev.Kind {
	case core.EventProbe:
		h.recoveries++
	case core.EventRegenerate:
		h.regens++
	}
}

// record retains every node's trace stream; installed only when
// Config.Trace is set, so an untraced run builds no trace events.
func (h *Harness) record(ev telemetry.TraceEvent) {
	h.trace = append(h.trace, TraceRecord{At: time.Duration(h.c.Now()), Ev: ev})
}

// linkDelay is the harness's latency model: a uniform per-message delay
// in [MinDelay, MaxDelay) from the run's own stream; no draw for a zero
// span.
func (h *Harness) linkDelay(_, _ mutex.ID, _ *rand.Rand) sim.Time {
	d := h.cfg.MinDelay
	if span := h.cfg.MaxDelay - d; span > 0 {
		d += time.Duration(h.rng.Int63n(int64(span)))
	}
	return sim.Time(d)
}

// granted is the driver's grant→hold→release transition (the engine has
// already checked the grant). Only members the driver made request are
// ever granted.
func (h *Harness) granted(g cluster.Grant) {
	if h.c.Side(g.Node) == 0 {
		h.maxFence = g.Generation
	}
	h.c.ReleaseAfter(sim.Time(h.wl.Hold), g.Node)
}

// released schedules the member's next request after an exponentially
// distributed think time.
func (h *Harness) released(id mutex.ID, at sim.Time) {
	think := time.Duration(h.rng.ExpFloat64() * float64(h.wl.Think))
	h.requestAt(time.Duration(at)+think, id)
}

// requestAt arms member id's next request, unless it falls past the end
// of the run.
func (h *Harness) requestAt(at time.Duration, id mutex.ID) {
	if at < h.wl.Duration {
		h.c.RequestAt(sim.Time(at), id)
	}
}

// start validates w, fills its defaults and arms the drivers' first
// requests — everything of a run that happens before time moves.
func (h *Harness) start(w Workload) error {
	if h.ran {
		return fmt.Errorf("simharness: harness already ran")
	}
	h.ran = true
	if w.Duration <= 0 {
		return fmt.Errorf("simharness: workload needs a positive duration")
	}
	if w.Think <= 0 {
		w.Think = time.Second
	}
	if w.Hold <= 0 {
		w.Hold = 5 * time.Millisecond
	}
	ids := h.c.IDs()
	if w.Requesters <= 0 || w.Requesters > len(ids) {
		w.Requesters = len(ids)
	}
	h.wl = w

	// Spread the requesters evenly across the ID range and stagger their
	// first requests across one mean think time, so the run does not
	// open with a synchronized thundering herd.
	stride := float64(len(ids)) / float64(w.Requesters)
	for i := 0; i < w.Requesters; i++ {
		h.requestAt(time.Duration(h.rng.Int63n(int64(w.Think)+1)), ids[int(float64(i)*stride)])
	}
	return nil
}

// Run executes w against the cluster: starts the drivers, advances the
// virtual clock through w.Duration (firing every delivery, driver step
// and scheduled fault in deterministic order), and reports. Any
// invariant violation or protocol error fails the run.
func (h *Harness) Run(w Workload) (Report, error) {
	if err := h.start(w); err != nil {
		return Report{}, err
	}
	w = h.wl // with its defaults filled in

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
