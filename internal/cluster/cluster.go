// Package cluster hosts protocol nodes — any mutex.Builder's — on the
// deterministic simulator (internal/sim), and is the one host for a
// simulated mutex.Env: it wires the nodes to the network, issues
// requests, releases granted sections, applies crashes, partitions and
// detector verdicts, and checks every grant. The algorithm suites and
// the Chapter 6 experiments drive it closed-loop to quiescence (Run) in
// hop ticks; internal/simharness drives it open-loop (RunFor) under fault
// schedules; both get the same checker.
package cluster

import (
	"errors"
	"fmt"
	"time"

	"dagmutex/internal/core"
	"dagmutex/internal/mutex"
	"dagmutex/internal/sim"
	"dagmutex/internal/vclock"
)

// Grant records one completed (or in-progress) critical-section entry.
type Grant struct {
	// Seq numbers grants in grant order, starting at 0.
	Seq int
	// Node is the site that entered its critical section.
	Node mutex.ID
	// ReqAt is the virtual time the request was issued; for a node that
	// held an idle token it equals GrantAt.
	ReqAt sim.Time
	// GrantAt is the virtual time the critical section was entered.
	GrantAt sim.Time
	// ExitAt is the virtual time the critical section was left. It is -1
	// while the section is still held.
	ExitAt sim.Time
	// PrevExitAt is the exit time of the previous grant, or -1 for the
	// first. Synchronization delay = GrantAt - PrevExitAt when the request
	// was already waiting (ReqAt < PrevExitAt).
	PrevExitAt sim.Time
	// Generation is the grant's fencing token, or 0 for protocols that
	// provide none. When non-zero it is strictly increasing in grant order
	// within one connectivity component (the cluster fails the run
	// otherwise).
	Generation uint64
}

// Waited reports whether the request was already pending when the previous
// holder left its critical section — the §6.3 synchronization-delay
// scenario.
func (g Grant) Waited() bool {
	return g.PrevExitAt >= 0 && g.ReqAt < g.PrevExitAt
}

// SyncDelayHops returns the synchronization delay in message hops, or
// false if this grant was not a waiting grant.
func (g Grant) SyncDelayHops(hop sim.Time) (float64, bool) {
	if !g.Waited() {
		return 0, false
	}
	return float64(g.GrantAt-g.PrevExitAt) / float64(hop), true
}

// MutualExclusionError reports two nodes simultaneously inside the
// critical section — the safety violation the Chapter 5 proof rules out.
type MutualExclusionError struct {
	Holder, Intruder mutex.ID
	At               sim.Time
}

func (e *MutualExclusionError) Error() string {
	return fmt.Sprintf("mutual exclusion violated at t=%d: node %d entered while node %d holds the CS",
		e.At, e.Intruder, e.Holder)
}

// DeadlockError reports quiescence with requests still outstanding — the
// situation Theorem 1 proves impossible for a correct implementation.
type DeadlockError struct {
	Pending []mutex.ID
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("deadlock: no events left but nodes %v still wait for the critical section", e.Pending)
}

// ErrLivelock reports that the event limit was exhausted before the run
// quiesced, which for these protocols indicates a message loop.
var ErrLivelock = errors.New("cluster: event limit exhausted before quiescence (livelock?)")

// Cluster couples a network on a virtual clock with one node per ID and
// the run's grant checker. Not safe for concurrent use: everything runs
// on the goroutine advancing the clock.
type Cluster struct {
	clk *vclock.Virtual
	net *sim.Network
	// ids is the membership. The rest of the mutex.Config (the parent
	// map, a map per member) only the build reads, so it is not kept.
	ids []mutex.ID

	netOpts     []sim.NetworkOption
	csTime      sim.Time
	autoRelease bool
	eventLimit  uint64

	// The steps armed as network events, bound once (no allocation per
	// arming).
	requestStep, releaseStep, verdictStep func(a, b mutex.ID)

	// reqAt, by member ID, is when the member's outstanding request was
	// issued, or -1.
	reqAt []sim.Time
	// sides is the checker's state per connectivity component, indexed by
	// sim.Member.Side; Partition mints them.
	sides []side

	entries  int
	grants   []Grant
	openLoop bool // set by RunFor: the grant log is not retained
	lastExit sim.Time
	// faulted is set by the first Crash or Partition: from then on a
	// recovery may re-queue a request and serve it after the driver moved
	// on, so a grant nobody waits for, or a request step finding its member
	// busy, is no longer a driver bug.
	faulted bool
	failure error

	onRelease []func(id mutex.ID, at sim.Time)
	onGrant   []func(g Grant)
}

// side is one connectivity component's share of the checker: who is in
// the critical section there, and the highest fencing generation granted
// there.
type side struct {
	holder mutex.ID
	maxGen uint64
}

// Option configures a Cluster.
type Option func(*Cluster)

// WithCSTime sets how long a node stays in its critical section before the
// auto-release fires (default 0: enter and leave in the same instant).
func WithCSTime(d sim.Time) Option { return func(c *Cluster) { c.csTime = d } }

// WithoutAutoRelease disables automatic release; the caller drives
// Release itself via ReleaseNow or ReleaseAfter.
func WithoutAutoRelease() Option { return func(c *Cluster) { c.autoRelease = false } }

// WithEventLimit overrides Run's livelock guard (default 10 million events).
func WithEventLimit(n uint64) Option { return func(c *Cluster) { c.eventLimit = n } }

// WithNetworkOptions forwards options to the underlying sim.Network.
func WithNetworkOptions(opts ...sim.NetworkOption) Option {
	return func(c *Cluster) { c.netOpts = append(c.netOpts, opts...) }
}

// env adapts the cluster to mutex.Env for one node. It has the by-value
// send capability (core.MsgSender), so a core.Node hosted here never
// boxes a REQUEST or PRIVILEGE; the baselines send through Send. New
// keeps every node's env in one slice and hands out pointers into it.
type env struct {
	c  *Cluster
	id mutex.ID
}

var _ core.MsgSender = (*env)(nil)

func (e *env) Send(to mutex.ID, m mutex.Message) { e.c.net.Send(e.id, to, m) }
func (e *env) SendMsg(to mutex.ID, m core.Msg)   { e.c.net.SendMsg(e.id, to, m) }
func (e *env) Granted(gen uint64)                { e.c.granted(e.id, gen) }

// New builds one node per cfg.IDs entry using b and wires them together.
// It validates cfg's ID list once, before building any node, so each
// node's Builder only looks its own ID up (mutex.Config.CheckID).
func New(b mutex.Builder, cfg mutex.Config, opts ...Option) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		clk:         vclock.NewVirtual(),
		ids:         cfg.IDs,
		autoRelease: true,
		eventLimit:  10_000_000,
		sides:       make([]side, 1),
		lastExit:    -1,
	}
	for _, opt := range opts {
		opt(c)
	}
	c.net = sim.NewNetwork(c.clk, c.netOpts...)
	c.requestStep, c.verdictStep = c.request, c.peerDown
	c.releaseStep = func(id, _ mutex.ID) { c.ReleaseNow(id) }
	maxID := cfg.IDs[len(cfg.IDs)-1]
	c.reqAt = make([]sim.Time, int(maxID)+1)
	for i := range c.reqAt {
		c.reqAt[i] = -1
	}
	c.net.Reserve(maxID, len(cfg.IDs))
	envs := make([]env, len(cfg.IDs))
	for i, id := range cfg.IDs {
		envs[i] = env{c: c, id: id}
		n, err := b(id, &envs[i], cfg)
		if err != nil {
			return nil, fmt.Errorf("build node %d: %w", id, err)
		}
		c.net.Attach(n)
	}
	return c, nil
}

// Clock exposes the underlying virtual clock.
func (c *Cluster) Clock() *vclock.Virtual { return c.clk }

// Now returns the current virtual time.
func (c *Cluster) Now() sim.Time { return c.net.Now() }

// member returns id's entry in the network. Unknown IDs panic: under the
// paper's model the membership is fixed, so they are bugs.
func (c *Cluster) member(id mutex.ID) *sim.Member {
	m := c.net.Member(id)
	if m == nil {
		panic(fmt.Sprintf("cluster: unknown node %d", id))
	}
	return m
}

// Node returns the node with the given id.
func (c *Cluster) Node(id mutex.ID) mutex.Node { return c.member(id).Node }

// Down reports whether member id is crashed, and Side which connectivity
// component it is in (0 = the main partition).
func (c *Cluster) Down(id mutex.ID) bool { return c.member(id).Down }
func (c *Cluster) Side(id mutex.ID) int  { return int(c.member(id).Side) }

// IDs returns the cluster membership.
func (c *Cluster) IDs() []mutex.ID { return c.ids }

// OnRelease registers fn to run whenever any node leaves its critical
// section. Closed-loop workloads use it to schedule the next request.
func (c *Cluster) OnRelease(fn func(id mutex.ID, at sim.Time)) { c.onRelease = append(c.onRelease, fn) }

// OnGrant registers fn to run at every critical-section entry.
func (c *Cluster) OnGrant(fn func(g Grant)) { c.onGrant = append(c.onGrant, fn) }

// RequestAt schedules node id to issue a critical-section request at
// virtual time t.
func (c *Cluster) RequestAt(t sim.Time, id mutex.ID) {
	c.net.After(t-c.Now(), c.requestStep, id, mutex.Nil)
}

// ReleaseAfter schedules node id to leave its critical section d ticks
// from now — what the auto-release does with the configured CS time.
func (c *Cluster) ReleaseAfter(d sim.Time, id mutex.ID) { c.net.After(d, c.releaseStep, id, mutex.Nil) }

// PeerDownAfter schedules a failure-detector verdict: d ticks from now
// observer is told that dead crashed.
func (c *Cluster) PeerDownAfter(d sim.Time, observer, dead mutex.ID) {
	c.net.After(d, c.verdictStep, observer, dead)
}

// request is the scheduled request step. A crashed member's driver has
// stopped.
func (c *Cluster) request(id, _ mutex.ID) {
	m := c.member(id)
	if c.failure != nil || m.Down {
		return
	}
	if c.reqAt[id] >= 0 || c.sides[m.Side].holder == id {
		if !c.faulted {
			c.fail(fmt.Errorf("node %d issued a second outstanding request", id))
		}
		return
	}
	c.reqAt[id] = c.Now()
	if err := m.Node.Request(); err != nil {
		c.fail(fmt.Errorf("request at node %d: %w", id, err))
	}
}

// granted is every critical-section entry: the invariant checkpoint (one
// holder, strictly increasing fences, per side) and the grant log.
func (c *Cluster) granted(id mutex.ID, gen uint64) {
	now := c.Now()
	reqAt := c.reqAt[id]
	switch {
	case reqAt >= 0:
		c.reqAt[id] = -1
	case c.faulted:
		reqAt = now
	default:
		c.fail(fmt.Errorf("node %d granted without an outstanding request", id))
		return
	}
	s := &c.sides[c.Side(id)]
	if s.holder != mutex.Nil {
		c.fail(&MutualExclusionError{Holder: s.holder, Intruder: id, At: now})
		return
	}
	if gen > 0 {
		// Fencing generations, when a protocol provides them, must be
		// strictly monotonic across each side of the run: grants there are
		// totally ordered by mutual exclusion, so a repeated or decreasing
		// token number would defeat the point of fencing. Sides cut off
		// from each other may interleave (a minority freezes at its last
		// generation while the majority moves on).
		if gen <= s.maxGen {
			c.fail(fmt.Errorf("node %d granted fencing generation %d, not above previous %d",
				id, gen, s.maxGen))
			return
		}
		s.maxGen = gen
	}
	g := Grant{
		Seq:        c.entries,
		Node:       id,
		ReqAt:      reqAt,
		GrantAt:    now,
		ExitAt:     -1,
		PrevExitAt: c.lastExit,
		Generation: gen,
	}
	c.entries++
	s.holder = id
	if !c.openLoop {
		c.grants = append(c.grants, g)
	}
	for _, fn := range c.onGrant {
		fn(g)
	}
	if c.autoRelease {
		c.ReleaseAfter(c.csTime, id)
	}
}

// ReleaseNow makes node id leave its critical section immediately — the
// scheduled release step, and what tests call themselves with
// auto-release disabled. A holder that crashed since the step was armed
// took its hold with it.
func (c *Cluster) ReleaseNow(id mutex.ID) {
	m := c.member(id)
	if c.failure != nil || m.Down {
		return
	}
	if c.sides[m.Side].holder != id {
		c.fail(fmt.Errorf("release at node %d which does not hold the CS", id))
		return
	}
	if err := m.Node.Release(); err != nil {
		c.fail(fmt.Errorf("release at node %d: %w", id, err))
		return
	}
	now := c.Now()
	// The log entry of the section being left is the last one, unless
	// sides interleave.
	for i := len(c.grants) - 1; i >= 0; i-- {
		if g := &c.grants[i]; g.Node == id {
			g.ExitAt = now
			break
		}
	}
	c.sides[m.Side].holder = mutex.Nil
	c.lastExit = now
	for _, fn := range c.onRelease {
		fn(id, now)
	}
}

// peerDown delivers one failure-detector verdict, unless the observer
// itself died (a verdict about a peer partitioned away later is still
// valid).
func (c *Cluster) peerDown(observer, dead mutex.ID) {
	if c.failure != nil || c.Down(observer) {
		return
	}
	mh, ok := c.Node(observer).(mutex.MembershipHandler)
	if !ok {
		c.fail(fmt.Errorf("node %d (%T) cannot take a PeerDown verdict", observer, c.Node(observer)))
	} else if err := mh.PeerDown(dead); err != nil {
		c.fail(fmt.Errorf("verdict PeerDown(%d) at node %d at t=%d: %w", dead, observer, c.Now(), err))
	}
}

// Crash fail-stops member id: it falls silent, its scheduled steps stop,
// and a hold dies with its holder — recovery regenerates the token. It
// reports whether the crash took effect (false: already down).
func (c *Cluster) Crash(id mutex.ID) bool {
	m := c.member(id)
	if m.Down {
		return false
	}
	c.faulted, m.Down = true, true
	if s := &c.sides[m.Side]; s.holder == id {
		s.holder = mutex.Nil
	}
	c.reqAt[id] = -1
	return true
}

// Partition cuts the given members off from the rest of the cluster and
// returns the side they now form. The checker treats each side on its
// own from here; a member in its critical section takes its hold along.
func (c *Cluster) Partition(isolate ...mutex.ID) int {
	c.faulted = true
	n := len(c.sides)
	c.sides = append(c.sides, side{})
	for _, id := range isolate {
		m := c.member(id)
		if old := &c.sides[m.Side]; old.holder == id {
			c.sides[n].holder, old.holder = id, mutex.Nil
		}
		m.Side = int32(n)
	}
	return n
}

func (c *Cluster) fail(err error) {
	if c.failure == nil {
		c.failure = err
	}
}

// Err returns the run's first failure so far: a safety violation, a
// driver error, or an error a node's Deliver handler raised.
func (c *Cluster) Err() error {
	if c.failure != nil {
		return c.failure
	}
	return c.net.Err()
}

// Run drives the simulation to quiescence and validates the outcome: no
// safety violation, no deliver errors, no pending requests (deadlock), no
// event-limit exhaustion (livelock).
func (c *Cluster) Run() error {
	_, drained := c.clk.Drain(c.eventLimit)
	if err := c.Err(); err != nil {
		return err
	}
	if !drained {
		return ErrLivelock
	}
	var waiting []mutex.ID
	for _, id := range c.ids {
		if c.reqAt[id] >= 0 {
			waiting = append(waiting, id)
		}
	}
	if len(waiting) > 0 {
		return &DeadlockError{Pending: waiting}
	}
	return nil
}

// RunFor is the open-loop run: it advances the clock through d ticks and
// reports how many events fired and the run's first failure; requests
// still outstanding at the horizon are not a deadlock. Such a run is
// sized by time, not by work, so from the first RunFor on the cluster
// stops retaining the grant log (Grants, GrantOrder) — OnGrant still
// sees every grant and Entries still counts them.
func (c *Cluster) RunFor(d sim.Time) (events uint64, err error) {
	c.openLoop = true
	return c.clk.Run(time.Duration(d)), c.Err()
}

// Grants returns the grant log in grant order.
func (c *Cluster) Grants() []Grant { return append([]Grant(nil), c.grants...) }

// Entries returns the number of critical-section entries so far.
func (c *Cluster) Entries() int { return c.entries }

// Counts returns the network traffic snapshot.
func (c *Cluster) Counts() sim.Counts { return c.net.Counts() }

// GrantOrder returns just the sequence of granted node IDs, which tests
// compare against expected queue orders.
func (c *Cluster) GrantOrder() []mutex.ID {
	out := make([]mutex.ID, len(c.grants))
	for i, g := range c.grants {
		out[i] = g.Node
	}
	return out
}
