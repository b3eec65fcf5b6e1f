// Package simharness runs the full DAG-mutex protocol stack under
// virtual time: a cluster of real core.Node state machines wired to a
// simulated network whose message deliveries, workload drivers and
// fault schedules are all events on one vclock.Virtual. Nothing in a
// harness run ever sleeps or races — every handler executes on the
// clock's advancing goroutine, in deterministic (time, scheduling)
// order — so a thousand-node cluster living through simulated hours of
// churn completes in wall-clock milliseconds-to-seconds, and the same
// seed replays the same run byte for byte (see Harness.FormatTrace).
//
// The harness sits between two existing layers. internal/sim is the
// thesis experiment simulator: abstract ticks, per-protocol message
// counts, no failures. internal/transport's Local cluster is the live
// runtime on real goroutines: faithful, but its schedules are whatever
// the Go scheduler produces. simharness keeps sim's determinism (both
// run on the same internal/sched event heap) while exercising the real
// protocol code paths the live runtime runs — including the epoch
// recovery machinery, which sim never drives — under fault schedules
// that are part of the input, not an accident of timing.
//
// The run's timeline is AfterFunc events only, which is the clock's
// cheap case (no yields between events), and the harness owns those
// events: every delivery, driver step and verdict is a pooled event
// object with one timer inside, re-armed with Reset and returned to the
// pool when it fires (see Harness.free). What one grant allocates is
// what core allocates.
//
// A run is: New a Harness, Schedule any faults, Run a Workload, read
// the Report. Invariants (single holder per connectivity component,
// strictly monotonic fencing per component) are checked on every grant
// during the run; violations fail the Run.
package simharness

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"dagmutex/internal/core"
	"dagmutex/internal/mutex"
	"dagmutex/internal/telemetry"
	"dagmutex/internal/topology"
	"dagmutex/internal/vclock"
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
	Messages     int64         `json:"messages"`
	Dropped      int64         `json:"dropped"`
	MsgsPerGrant float64       `json:"msgs_per_grant"`
	MaxFence     uint64        `json:"max_fence"`
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

// linkClamp is one link's FIFO clamp: the arrival time (since the start
// of the run) of the latest message the owning sender has in flight to
// member to.
type linkClamp struct {
	to mutex.ID
	at time.Duration
}

// Harness is one virtual cluster. Not safe for concurrent use: every
// method runs on the goroutine that advances the clock (normally the
// test goroutine), which is also where every scheduled event fires.
//
// Per-member state lives in slices indexed by member ID (members are the
// dense range 1..Nodes; index 0 is unused).
type Harness struct {
	cfg  Config
	clk  *vclock.Virtual
	tree *topology.Tree
	rng  *rand.Rand

	nodes []*core.Node
	ids   []mutex.ID

	// lastAt is the per-link FIFO clamp, one short list per sender: a link
	// never delivers a later send before an earlier one, whatever the
	// jitter draws. Only links with a message still in flight are listed
	// (see fifoClamp).
	lastAt [][]linkClamp

	// down marks crashed members; side assigns each member to a
	// connectivity component (0 = the main partition; each SchedulePartition
	// call mints a fresh side for the isolated group).
	down []bool
	side []int

	// driver state: which members run the workload loop, and the request
	// lifecycle position of each (at most one outstanding request per
	// node, per the protocol contract).
	driving    []bool
	requesting []bool

	// invariant state: inCS by member, with holders listing the members
	// it marks (at most one per side unless an invariant broke); maxFence
	// by side.
	inCS     []bool
	holders  []mutex.ID
	maxFence []uint64

	// free holds fired events for reuse. The harness owns every event and
	// the one AfterFunc timer inside it: arm takes one from here (or makes
	// one), the event returns itself when it fires, and nothing else
	// keeps a reference — so a steady-state run schedules without
	// allocating.
	free []*event

	// wl is the active workload, set once by Run.
	wl Workload

	msgs       int64
	dropped    int64
	grants     int64
	recoveries int64
	regens     int64
	violations []string

	trace []TraceRecord

	ran bool
}

// New builds a virtual cluster per cfg: one core.Node per tree vertex,
// the token at cfg.Holder, NEXT pointers oriented toward it (the
// Figure 5 INIT steady state), all wired to the harness network.
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
	n := cfg.Nodes + 1
	h := &Harness{
		cfg:        cfg,
		clk:        vclock.NewVirtual(),
		tree:       tree,
		rng:        rng,
		nodes:      make([]*core.Node, n),
		ids:        tree.IDs(),
		lastAt:     make([][]linkClamp, n),
		down:       make([]bool, n),
		side:       make([]int, n),
		driving:    make([]bool, n),
		requesting: make([]bool, n),
		inCS:       make([]bool, n),
		maxFence:   make([]uint64, 1),
	}
	mcfg := mutex.Config{IDs: h.ids, Holder: cfg.Holder, Parent: tree.ParentsToward(cfg.Holder)}
	for _, id := range h.ids {
		env := &nodeEnv{h: h, id: id}
		opts := []core.Option{core.WithTraceObserver(h.observerFor(id))}
		if cfg.Compress {
			opts = append(opts, core.WithPathCompression())
		}
		n, err := core.New(id, env, mcfg, opts...)
		if err != nil {
			return nil, fmt.Errorf("simharness: node %d: %w", id, err)
		}
		h.nodes[id] = n
	}
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

// Clock exposes the run's virtual clock (for tests that advance it by
// hand after scheduling their own events).
func (h *Harness) Clock() *vclock.Virtual { return h.clk }

// Topology returns the logical tree the cluster was built on.
func (h *Harness) Topology() *topology.Tree { return h.tree }

// observerFor bridges one node's trace stream into the harness: the
// recovery counters always, the retained trace only when enabled.
func (h *Harness) observerFor(id mutex.ID) func(telemetry.TraceEvent) {
	return func(ev telemetry.TraceEvent) {
		if ev.Kind == telemetry.TraceRecovery {
			switch ev.Detail {
			case "PROBE":
				h.recoveries++
			case "REGENERATE":
				h.regens++
			}
		}
		if h.cfg.Trace {
			h.trace = append(h.trace, TraceRecord{At: h.clk.Elapsed(), Ev: ev})
		}
	}
}

// nodeEnv is the mutex.Env the harness hands each node: sends become
// scheduled deliveries, grants feed the invariant checker and the
// workload driver.
type nodeEnv struct {
	h  *Harness
	id mutex.ID
}

func (e *nodeEnv) Send(to mutex.ID, m mutex.Message) { e.h.send(e.id, to, m, core.Msg{}) }
func (e *nodeEnv) SendMsg(to mutex.ID, m core.Msg)   { e.h.send(e.id, to, nil, m) }
func (e *nodeEnv) Granted(gen uint64)                { e.h.granted(e.id, gen) }
func (e *nodeEnv) GrantedHops(gen uint64, hops int)  { e.h.granted(e.id, gen) }

var _ mutex.HopGranter = (*nodeEnv)(nil)
var _ core.MsgSender = (*nodeEnv)(nil)

// eventKind says what a pooled event does when it fires.
type eventKind uint8

const (
	evDeliver eventKind = iota // hand v (or, boxed, m) from member from to member to
	evRequest                  // driver: member to asks for the CS
	evRelease                  // driver: member to leaves the CS
	evVerdict                  // detector: member from is told member to died
)

// event is one scheduled harness step — a delivery, a driver step or a
// detector verdict — and the AfterFunc timer that fires it. See
// Harness.free for who owns it. A delivery carries its message in v when
// core sent it by value (every REQUEST and PRIVILEGE) and in m otherwise
// (the recovery messages).
type event struct {
	h        *Harness
	tm       vclock.Timer
	kind     eventKind
	from, to mutex.ID
	m        mutex.Message
	v        core.Msg
}

// arm schedules one event d from now, re-arming a recycled event's timer
// when there is one. Either way the clock takes exactly one scheduling
// sequence number, here. Nothing fires before the clock next advances,
// so send fills in the returned event's message afterwards.
func (h *Harness) arm(d time.Duration, kind eventKind, from, to mutex.ID) *event {
	if n := len(h.free); n > 0 {
		e := h.free[n-1]
		h.free = h.free[:n-1]
		e.kind, e.from, e.to = kind, from, to
		e.tm.Reset(d)
		return e
	}
	e := &event{h: h, kind: kind, from: from, to: to}
	e.tm = h.clk.AfterFunc(d, e.fire)
	return e
}

// fire recycles the event, then runs its step — in that order, so the
// sends the step makes can already reuse it.
func (e *event) fire() {
	h, kind, from, to, m, v := e.h, e.kind, e.from, e.to, e.m, e.v
	e.m, e.v = nil, core.Msg{}
	h.free = append(h.free, e)
	switch kind {
	case evDeliver:
		h.deliver(from, to, m, v)
	case evRequest:
		h.driverRequest(to)
	case evRelease:
		h.driverRelease(to)
	case evVerdict:
		h.verdictDown(from, to)
	}
}

// send schedules the delivery of one message — v when it has a kind, m
// otherwise — after a seeded uniform link delay, clamped so the
// (from, to) link stays FIFO. Sends across an active partition cut are
// dropped at send time; messages already in flight when a cut lands
// still arrive (they were on the wire).
func (h *Harness) send(from, to mutex.ID, m mutex.Message, v core.Msg) {
	if h.side[from] != h.side[to] {
		h.dropped++
		return
	}
	delay := h.cfg.MinDelay
	if span := h.cfg.MaxDelay - h.cfg.MinDelay; span > 0 {
		delay += time.Duration(h.rng.Int63n(int64(span)))
	}
	now := h.clk.Elapsed()
	at := h.fifoClamp(from, to, now, now+delay)
	e := h.arm(at-now, evDeliver, from, to)
	e.m, e.v = m, v
}

// fifoClamp returns the arrival time for a message sent now on the
// (from, to) link that would otherwise arrive at at: pushed just past the
// link's previous arrival if the jitter drew it earlier. The sender's
// list is compacted on the way: an entry whose message has arrived
// (at <= now) can never clamp again, because every later send arrives
// after now + MinDelay.
func (h *Harness) fifoClamp(from, to mutex.ID, now, at time.Duration) time.Duration {
	links := h.lastAt[from]
	n := 0
	for _, l := range links {
		switch {
		case l.to == to:
			if at <= l.at {
				at = l.at + time.Nanosecond
			}
		case l.at > now:
			links[n] = l
			n++
		}
	}
	h.lastAt[from] = append(links[:n], linkClamp{to: to, at: at})
	return at
}

// deliver hands the message to its destination — by value when it was
// sent that way — unless the destination crashed while the message was
// in flight.
func (h *Harness) deliver(from, to mutex.ID, m mutex.Message, v core.Msg) {
	if h.down[to] {
		h.dropped++
		return
	}
	h.msgs++
	var err error
	if v.Kind != core.MsgNone {
		err = h.nodes[to].DeliverMsg(from, v)
	} else {
		err = h.nodes[to].Deliver(from, m)
	}
	if err != nil {
		kind := v.Kind.String()
		if m != nil {
			kind = m.Kind()
		}
		h.failf("deliver %s %d->%d at %v: %v", kind, from, to, h.clk.Elapsed(), err)
	}
}

// granted is every critical-section entry: the invariant checkpoint and
// the driver's grant→hold→release transition.
func (h *Harness) granted(id mutex.ID, gen uint64) {
	h.grants++
	side := h.side[id]
	for _, other := range h.holders {
		if h.side[other] == side {
			h.failf("mutual exclusion violated at %v: nodes %d and %d both in CS (side %d)",
				h.clk.Elapsed(), other, id, side)
		}
	}
	if max := h.maxFence[side]; gen <= max {
		h.failf("fence regression at %v: node %d granted %d after %d (side %d)",
			h.clk.Elapsed(), id, gen, max, side)
	}
	h.maxFence[side] = gen
	if !h.inCS[id] {
		h.inCS[id] = true
		h.holders = append(h.holders, id)
	}
	h.requesting[id] = false
	if h.driving[id] {
		h.arm(h.holdFor(), evRelease, mutex.Nil, id)
	}
}

// leaveCS clears id's critical-section mark, if set.
func (h *Harness) leaveCS(id mutex.ID) {
	if !h.inCS[id] {
		return
	}
	h.inCS[id] = false
	for i, other := range h.holders {
		if other == id {
			last := len(h.holders) - 1
			h.holders[i] = h.holders[last]
			h.holders = h.holders[:last]
			return
		}
	}
}

func (h *Harness) holdFor() time.Duration { return h.wl.Hold }

// failf records an invariant violation (capped: one storm, not a
// million lines).
func (h *Harness) failf(format string, args ...any) {
	if len(h.violations) < 32 {
		h.violations = append(h.violations, fmt.Sprintf(format, args...))
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
	if w.Requesters <= 0 || w.Requesters > len(h.ids) {
		w.Requesters = len(h.ids)
	}
	h.wl = w

	// Spread the requesters evenly across the ID range and stagger their
	// first requests across one mean think time, so the run does not
	// open with a synchronized thundering herd.
	stride := float64(len(h.ids)) / float64(w.Requesters)
	for i := 0; i < w.Requesters; i++ {
		id := h.ids[int(float64(i)*stride)]
		h.driving[id] = true
		h.arm(time.Duration(h.rng.Int63n(int64(w.Think)+1)), evRequest, mutex.Nil, id)
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
	events := h.clk.Run(w.Duration)
	wall := time.Since(start)

	r := Report{
		Nodes:         len(h.ids),
		Topology:      h.tree.Name(),
		Requesters:    w.Requesters,
		Seed:          h.cfg.Seed,
		SimDuration:   w.Duration,
		WallDuration:  wall,
		Grants:        h.grants,
		Messages:      h.msgs,
		Dropped:       h.dropped,
		MaxFence:      h.maxFence[0],
		Recoveries:    h.recoveries,
		Regenerations: h.regens,
		Events:        events,
	}
	if h.grants > 0 {
		r.MsgsPerGrant = float64(h.msgs) / float64(h.grants)
	}
	if len(h.violations) > 0 {
		return r, fmt.Errorf("simharness: %d violation(s):\n  %s",
			len(h.violations), strings.Join(h.violations, "\n  "))
	}
	return r, nil
}

// driverRequest issues one CS request for id, unless the member crashed
// or still has a request outstanding (a recovery can re-queue a request
// that then lands after the driver moved on).
func (h *Harness) driverRequest(id mutex.ID) {
	if h.down[id] || h.requesting[id] || h.inCS[id] {
		return
	}
	if h.clk.Elapsed() >= h.wl.Duration {
		return
	}
	h.requesting[id] = true
	if err := h.nodes[id].Request(); err != nil {
		h.failf("request at node %d at %v: %v", id, h.clk.Elapsed(), err)
	}
}

// driverRelease leaves the CS and schedules the next request after an
// exponentially distributed think time.
func (h *Harness) driverRelease(id mutex.ID) {
	if h.down[id] || !h.inCS[id] {
		return
	}
	h.leaveCS(id)
	if err := h.nodes[id].Release(); err != nil {
		h.failf("release at node %d at %v: %v", id, h.clk.Elapsed(), err)
		return
	}
	think := time.Duration(h.rng.ExpFloat64() * float64(h.wl.Think))
	h.arm(think, evRequest, mutex.Nil, id)
}

// Grants returns the number of critical-section entries so far (tests
// use the delta around a fault window to assert progress).
func (h *Harness) Grants() int64 { return h.grants }

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
