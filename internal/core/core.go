// Package core implements the thesis's contribution: Neilsen's DAG-based
// token algorithm for distributed mutual exclusion (published with Mizuno
// at ICDCS 1991).
//
// Each node keeps exactly three control variables:
//
//   - HOLDING — true while the node possesses the token but is idle;
//   - NEXT    — the neighbor toward the current sink (0 at a sink);
//   - FOLLOW  — the node to pass the token to after this one (0 if none).
//
// REQUEST(X, Y) messages travel along NEXT pointers toward the sink,
// reversing every edge they cross; the requester becomes the new sink. A
// sink stores at most one pending successor in FOLLOW, so the system-wide
// waiting queue exists only implicitly, as the FOLLOW chain rooted at the
// token holder (see ImplicitQueue). The thesis's PRIVILEGE message — the
// token — carries no data at all; this implementation extends it with a
// fencing generation, one integer incremented on every grant (see
// Privilege).
//
// The implementation follows Figure 3 of the thesis (procedures P1 and P2)
// exactly, restated as an event-driven state machine so that it runs on
// both the deterministic simulator and the live goroutine runtime. Nodes
// are not safe for concurrent use by themselves; callers serialize access,
// which mirrors the paper's "local mutual exclusion" execution model.
//
// Messages reach and leave a node on one of two routes, chosen once at
// construction from what the host can do, never by a setting. The boxed
// route is mutex.Env.Send and Node.Deliver: every message is a
// mutex.Message, and REQUEST and PRIVILEGE arrive as Request and
// Privilege values. The by-value route (msg.go) carries those two — the
// only messages a fail-free grant sends — as a Msg through the optional
// MsgSender capability of the Env and Node.DeliverMsg, so that the
// message never becomes a heap object. Both run the same handlers, and
// nodes on either route share a cluster.
package core

import (
	"fmt"

	"dagmutex/internal/mutex"
	"dagmutex/internal/telemetry"
)

// Request is the thesis's REQUEST(X, Y) message. From is X, the adjacent
// node that forwarded it; Origin is Y, the node that initiated it. From
// always equals the transport-level sender; it is kept in the message body
// because the paper defines the message to carry both integers, and the
// storage analysis (§6.4) counts them. Epoch is the failure-recovery
// extension: requests from a superseded configuration (sent before a
// crash recovery the sender had not yet seen) are dropped on delivery, so
// a recovered cluster cannot double-serve a request that the recovery
// already re-queued.
type Request struct {
	From   mutex.ID
	Origin mutex.ID
	Epoch  uint32
	// Hops counts the forwards this request has survived: 0 as issued by
	// Origin, incremented at every intermediate node. The granting node
	// folds the final count into the PRIVILEGE it dispatches, so the
	// requester learns — for free, on frames that travel anyway — how far
	// its request actually walked. That number is the adaptive-topology
	// work's measurement: the lock service aggregates it per shard, and
	// dagbench's `-exp topology` sweep reports it as hops/grant.
	Hops uint16
}

// Kind implements mutex.Message.
func (Request) Kind() string { return "REQUEST" }

// Size implements mutex.Message: two integers, per thesis §6.4, plus the
// recovery epoch and the hop counter.
func (Request) Size() int { return 2*mutex.IntSize + EpochSize + HopSize }

// Privilege is the token. The thesis's PRIVILEGE carries no data at all
// (§6.4); this implementation extends it with one integer, the fencing
// generation, so every grant can hand the application a token number that
// is strictly monotonic across the whole cluster. Generation counts the
// grants issued under the token so far; the receiver's own grant is
// Generation+1. Because the token serializes all grants, the counter
// needs no coordination beyond riding along with the token itself — the
// hardening step the token-algorithm surveys identify as what separates
// the paper algorithm from a deployable lock service.
//
// Epoch stamps the token with the recovery epoch it was issued under. A
// token from an older epoch is annihilated on delivery: either the
// recovery regenerated it (so the old instance must not resurface) or its
// holder was excised, and in both cases exactly one live token per epoch
// survives.
type Privilege struct {
	Generation uint64
	Epoch      uint32
	// Requesting is the pipelined-handoff extension: the releasing
	// sender's next request rides the token instead of being a separate
	// REQUEST message. On delivery the receiver processes the token,
	// then processes REQUEST(sender, sender) exactly as if it had
	// arrived immediately behind the PRIVILEGE on the same FIFO channel
	// — which is precisely what the two-message sequence would have
	// done, minus one message. See Node.ReleaseRequest.
	Requesting bool
	// Hops is the forwarding-path length of the REQUEST this token
	// answers (0 when the grant needed no request to travel: an idle
	// holder entering directly, recovery reissues). It rides the token
	// the same way the Requesting flag does — measurement piggybacked on
	// a frame that travels anyway, no extra message type.
	Hops uint16
}

// Kind implements mutex.Message.
func (Privilege) Kind() string { return "PRIVILEGE" }

// Size implements mutex.Message: one 8-byte generation counter (the
// thesis's token is empty; the fencing extension costs one integer),
// the recovery epoch, the pipelined-handoff request flag, and the
// request-path hop count.
func (Privilege) Size() int { return GenSize + EpochSize + 1 + HopSize }

// GenSize is the wire size, in bytes, of the fencing generation counter.
const GenSize = 8

// EpochSize is the wire size, in bytes, of the recovery epoch counter.
const EpochSize = 4

// HopSize is the wire size, in bytes, of the request-path hop counter.
const HopSize = 2

// State names the six node states of the thesis's Figure 4.
type State uint8

// The states of Figure 4. StateN is deliberately non-zero so that a zero
// State is detectably invalid.
const (
	// StateN: not requesting and not holding the token.
	StateN State = iota + 1
	// StateR: requesting; no subsequent request received (a sink).
	StateR
	// StateRF: requesting; a subsequent request is stored in FOLLOW.
	StateRF
	// StateE: executing in the critical section; no subsequent request (a sink).
	StateE
	// StateEF: executing; a subsequent request is stored in FOLLOW.
	StateEF
	// StateH: holding the token, idle, no requests received (a sink).
	StateH
)

// String returns the thesis's name for the state.
func (s State) String() string {
	switch s {
	case StateN:
		return "N"
	case StateR:
		return "R"
	case StateRF:
		return "RF"
	case StateE:
		return "E"
	case StateEF:
		return "EF"
	case StateH:
		return "H"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Sink reports whether the state is one of Figure 4's shaded (sink)
// states, in which NEXT = 0.
func (s State) Sink() bool { return s == StateR || s == StateE || s == StateH }

// Transition labels the eight transitions of Figure 4.
type Transition uint8

// The transitions of Figure 4, numbered as in the thesis.
const (
	// TransRequest (1): the node sends REQUEST(I,I) to NEXT and becomes a sink.
	TransRequest Transition = iota + 1
	// TransSaveFollow (2): a sink saves a request in FOLLOW and leaves the sink state.
	TransSaveFollow
	// TransForward (3): a non-sink forwards a request and re-points NEXT.
	TransForward
	// TransReceiveToken (4): the node receives PRIVILEGE and enters its CS.
	TransReceiveToken
	// TransKeepToken (5): the node leaves its CS with no successor and sets HOLDING.
	TransKeepToken
	// TransEnterHolding (6): an idle holder enters its CS directly.
	TransEnterHolding
	// TransPassToken (7): the node leaves its CS and passes the token to FOLLOW.
	TransPassToken
	// TransGrantFromHolding (8): an idle holder passes the token straight to a requester.
	TransGrantFromHolding
)

// String returns the thesis's number for the transition.
func (tr Transition) String() string {
	if tr >= TransRequest && tr <= TransGrantFromHolding {
		return fmt.Sprintf("%d", uint8(tr))
	}
	return fmt.Sprintf("Transition(%d)", uint8(tr))
}

// Snapshot is a point-in-time copy of one node's control state, used by
// invariant checkers, the implicit-queue deduction, and the Figure 2/6
// golden tests.
type Snapshot struct {
	ID         mutex.ID
	Holding    bool
	Next       mutex.ID
	Follow     mutex.ID
	Requesting bool
	InCS       bool
	// Generation is the fencing counter as last seen at this node: the
	// number of grants issued under the token's whole history. It is
	// meaningful only while the node has the token (elsewhere it is the
	// stale value from the node's last possession).
	Generation uint64
	// Epoch is the recovery epoch the node operates in: 0 until the first
	// crash recovery, bumped by every one.
	Epoch uint32
	// Frozen reports that the node is mid-recovery: it has acknowledged a
	// probe (or is coordinating one) and withholds token movement until
	// the coordinator's reorientation arrives.
	Frozen bool
}

// State classifies the snapshot into one of Figure 4's six states.
func (s Snapshot) State() State {
	switch {
	case s.Holding:
		return StateH
	case s.InCS && s.Follow != mutex.Nil:
		return StateEF
	case s.InCS:
		return StateE
	case s.Requesting && s.Follow != mutex.Nil:
		return StateRF
	case s.Requesting:
		return StateR
	default:
		return StateN
	}
}

// HasToken reports whether the node possesses the token in this snapshot
// (holding it idle or using it in the critical section).
func (s Snapshot) HasToken() bool { return s.Holding || s.InCS }

// Node is one site running the DAG algorithm.
type Node struct {
	id     mutex.ID
	env    mutex.Env
	hopEnv mutex.HopGranter // env's optional hop-accounting surface, cached at New
	msgEnv MsgSender        // env's optional by-value send surface, cached at New (see msg.go)

	holding    bool
	next       mutex.ID
	follow     mutex.ID
	requesting bool
	inCS       bool
	gen        uint64 // fencing counter; travels with the token (see Privilege)

	// Adaptive-topology state. compress switches procedure P2's edge
	// reversal to the Naimi–Trehel rule (NEXT := Origin instead of
	// NEXT := From), so every request a node touches rewires it directly
	// at the requester about to become the new sink; followHops remembers
	// the stored FOLLOW request's path length until the token leaves;
	// grantHops is the path length behind the grant currently being
	// issued (0 for grants that needed no request to travel).
	compress   bool
	followHops uint16
	grantHops  uint16

	// Failure-recovery state (see recover.go). Epoch counts completed
	// recoveries; dead is the local membership suspicion set; frozen spans
	// the window between acknowledging a probe and applying the
	// coordinator's reorientation, during which the token must not move.
	epoch   uint32
	coord   mutex.ID   // coordinator that set the current epoch (tie-break)
	ids     []mutex.ID // the membership: cfg.IDs itself, shared between nodes and only ever read
	dead    map[mutex.ID]bool
	frozen  bool
	staleCS bool // in CS under a token a recovery has since invalidated
	// ackedRequesting remembers what the node told the coordinator, so
	// requests issued during the freeze (which the coordinator cannot
	// know about) are re-sent after reorientation while acknowledged ones
	// wait for the rebuilt chain.
	ackedRequesting bool
	deferred        []deferredMsg // same-epoch traffic buffered while frozen
	joinAsked       uint32        // highest epoch we already sent a Join for
	// planTarget is the hot node a planned reshape (PlanReorient) biases
	// the next rebuilt orientation toward; Nil outside a planned round.
	planTarget mutex.ID

	// Coordinator-side recovery state.
	collecting bool
	awaiting   map[mutex.ID]bool
	ackHolder  mutex.ID
	ackWaiters []mutex.ID
	ackMaxGen  uint64

	// Figure 5 INIT support (see init.go). Nodes built with New are
	// initialized statically and never touch these fields.
	uninitialized bool
	isInitHolder  bool
	neighbors     []mutex.ID

	// onTransition, when set, observes every Figure 4 transition together
	// with the state the node ends up in. Used by the automaton checker.
	onTransition func(tr Transition, to State)
	// onEvent, when set, observes failure-recovery events (see Event).
	onEvent func(Event)
	// onTrace, when set, observes the structured trace stream: one event
	// per protocol action (request issued, request forwarded, token
	// dispatched, critical section entered) plus the recovery events,
	// all in the telemetry vocabulary. See WithTraceObserver.
	onTrace func(telemetry.TraceEvent)
	// onInit, when set, fires once when the node completes INIT (for
	// nodes built with NewUninitialized; nodes built initialized never
	// fire it).
	onInit func(id mutex.ID)
}

// deferredMsg is one REQUEST or PRIVILEGE buffered while frozen — the
// only kinds the freeze defers.
type deferredMsg struct {
	from mutex.ID
	msg  Msg
}

var _ mutex.Node = (*Node)(nil)
var _ mutex.MembershipHandler = (*Node)(nil)
var _ mutex.Reorienter = (*Node)(nil)

// Option configures a Node at construction time.
type Option func(*Node)

// WithTransitionObserver registers fn to be invoked after every state
// transition, with the Figure 4 transition number and resulting state.
func WithTransitionObserver(fn func(tr Transition, to State)) Option {
	return func(n *Node) { n.onTransition = fn }
}

// WithEventObserver registers fn to be invoked on every failure-recovery
// event (peer suspected, probe, regeneration, reorientation, ...), for
// traces and telemetry. fn runs inside the node's handlers and must not
// block.
func WithEventObserver(fn func(Event)) Option {
	return func(n *Node) { n.onEvent = fn }
}

// WithInitObserver registers fn to be invoked once, with the node's id,
// when a node built with NewUninitialized completes the Figure 5 INIT
// flood — the event-driven alternative to polling Initialized. fn runs
// inside the node's handlers and must not block.
func WithInitObserver(fn func(id mutex.ID)) Option {
	return func(n *Node) { n.onInit = fn }
}

// WithTraceObserver registers fn to receive the node's structured trace
// stream: a REQUEST event when the node issues a request, FORWARD at
// every node a request passes through, PRIVILEGE when the token is
// dispatched, GRANT at every critical-section entry, and RECOVERY for
// the failure subsystem's events. Every event carries the causal
// identity already on the wire — the request's Origin and the fencing
// generation — so a grant's whole request→hop→privilege→grant chain
// shares one TraceID without any new message fields.
//
// fn runs inside the node's handlers: it must not block, must not call
// back into the node, and must itself be allocation-free to preserve
// the hot path's allocation budget (feed telemetry.Counter/Histogram
// instruments, or copy the event into a preallocated ring).
func WithTraceObserver(fn func(telemetry.TraceEvent)) Option {
	return func(n *Node) { n.onTrace = fn }
}

// WithPathCompression switches procedure P2's edge reversal from the
// thesis's NEXT := X (the adjacent forwarder) to the Naimi–Trehel rule
// NEXT := Y (the originating requester, about to become the new sink).
// Every node a request passes through then points directly at the
// requester instead of merely back along the channel the request
// arrived on, collapsing the forwarding chain the request just
// traversed: under repeated contention the expected request path drops
// to O(log n) regardless of the initial tree shape (Lavault's
// average-case analysis of path reversal). Safety is untouched — the
// DAG stays acyclic toward the sink because Y is the new sink by
// definition — and nodes with and without compression interoperate,
// since the rule is purely local.
func WithPathCompression() Option {
	return func(n *Node) { n.compress = true }
}

// New constructs the node with the given identifier. cfg.Holder designates
// the initial token holder; every other node must have cfg.Parent[id] set
// to its neighbor on the path toward the holder (the state the Figure 5
// INIT procedure establishes).
func New(id mutex.ID, env mutex.Env, cfg mutex.Config, opts ...Option) (*Node, error) {
	if err := mutex.ValidateIDs(cfg.IDs, id); err != nil {
		return nil, err
	}
	if cfg.Holder == mutex.Nil {
		return nil, fmt.Errorf("%w: no initial token holder designated", mutex.ErrBadConfig)
	}
	n := &Node{id: id, env: env,
		ids: cfg.IDs, dead: make(map[mutex.ID]bool)}
	if cfg.Holder == id {
		n.holding = true
		n.next = mutex.Nil
	} else {
		p, ok := cfg.Parent[id]
		if !ok || p == mutex.Nil {
			return nil, fmt.Errorf("%w: node %d has no parent toward holder %d",
				mutex.ErrBadConfig, id, cfg.Holder)
		}
		if p == id {
			return nil, fmt.Errorf("%w: node %d is its own parent", mutex.ErrBadConfig, id)
		}
		n.next = p
	}
	n.probeEnv()
	for _, o := range opts {
		o(n)
	}
	return n, nil
}

// probeEnv caches env's optional capabilities, once, at construction:
// no handler type-asserts per message.
func (n *Node) probeEnv() {
	n.hopEnv, _ = n.env.(mutex.HopGranter)
	n.msgEnv, _ = n.env.(MsgSender)
}

// Builder adapts New to the mutex.Builder signature.
func Builder(id mutex.ID, env mutex.Env, cfg mutex.Config) (mutex.Node, error) {
	return New(id, env, cfg)
}

// ID implements mutex.Node.
func (n *Node) ID() mutex.ID { return n.id }

// Snapshot returns a copy of the node's control state.
func (n *Node) Snapshot() Snapshot {
	return Snapshot{
		ID:         n.id,
		Holding:    n.holding,
		Next:       n.next,
		Follow:     n.follow,
		Requesting: n.requesting,
		InCS:       n.inCS,
		Generation: n.gen,
		Epoch:      n.epoch,
		Frozen:     n.frozen,
	}
}

// State returns the node's current Figure 4 state.
func (n *Node) State() State { return n.Snapshot().State() }

// Request implements procedure P1's request half (Figure 3). If the node
// already holds the token it enters its critical section immediately
// (transition 6); otherwise it sends REQUEST(I,I) toward the sink and
// becomes the new sink itself (transition 1).
func (n *Node) Request() error {
	if n.uninitialized {
		return fmt.Errorf("%w: node %d not initialized (run Figure 5 INIT first)", mutex.ErrBadConfig, n.id)
	}
	if n.requesting || n.inCS {
		return mutex.ErrOutstanding
	}
	if n.holding {
		n.holding = false
		n.inCS = true
		n.transition(TransEnterHolding)
		n.grant()
		return nil
	}
	n.requesting = true
	if n.frozen {
		// Mid-recovery: the DAG is being rebuilt, so there is nowhere
		// sound to route the request yet. It is issued once the
		// coordinator's reorientation lands (see deliverReorient).
		return nil
	}
	to := n.next
	n.sendRequest(to, Request{From: n.id, Origin: n.id, Epoch: n.epoch})
	n.next = mutex.Nil
	n.transition(TransRequest)
	n.trace(telemetry.TraceRequest, to, n.id, 0, 0)
	return nil
}

// TryRequest implements mutex.TryRequester: an idle holder enters its
// critical section immediately (transition 6, exactly as Request would);
// any other node reports false without sending a REQUEST, since an issued
// request cannot be cancelled under the paper's model.
func (n *Node) TryRequest() (bool, error) {
	if n.uninitialized {
		return false, fmt.Errorf("%w: node %d not initialized (run Figure 5 INIT first)", mutex.ErrBadConfig, n.id)
	}
	if n.requesting || n.inCS {
		return false, mutex.ErrOutstanding
	}
	if !n.holding {
		return false, nil
	}
	n.holding = false
	n.inCS = true
	n.transition(TransEnterHolding)
	n.grant()
	return true, nil
}

// grant issues the next fencing generation and reports the grant. Every
// critical-section entry goes through here, so generations are strictly
// monotonic across the cluster: the counter travels with the token and
// the token serializes all grants. Environments with hop accounting
// also receive the granted request's path length (grantHops, set by
// deliverPrivilege and consumed exactly once here).
func (n *Node) grant() {
	n.gen++
	hops := int(n.grantHops)
	n.grantHops = 0
	n.trace(telemetry.TraceGrant, mutex.Nil, n.id, n.gen, uint16(hops))
	if n.hopEnv != nil {
		n.hopEnv.GrantedHops(n.gen, hops)
		return
	}
	n.env.Granted(n.gen)
}

// Release implements procedure P1's exit half (Figure 3). If a successor
// is recorded in FOLLOW the token moves to it at once (transition 7);
// otherwise the node keeps the token idle (transition 5).
func (n *Node) Release() error {
	if !n.inCS {
		return mutex.ErrNotInCS
	}
	n.inCS = false
	if n.staleCS {
		// The critical section was entered under a token that a recovery
		// has since invalidated (the node was excised and re-admitted).
		// There is nothing to keep or pass; the regenerated token lives
		// elsewhere and the fencing generation protects downstream state.
		n.staleCS = false
		return nil
	}
	if n.frozen {
		// Mid-recovery the token must not move: the coordinator's view of
		// who holds it (this node) must stay true until the reorientation
		// lands. Waiters are re-queued by the rebuilt FOLLOW chain, so the
		// local successor pointer is dropped, not served.
		n.holding = true
		n.follow = mutex.Nil
		n.followHops = 0
		return nil
	}
	if n.follow != mutex.Nil {
		to := n.follow
		hops := n.followHops
		n.follow = mutex.Nil
		n.followHops = 0
		n.sendPrivilege(to, Privilege{Generation: n.gen, Epoch: n.epoch, Hops: hops})
		n.transition(TransPassToken)
		n.trace(telemetry.TracePrivilege, to, to, n.gen, hops)
		return nil
	}
	n.holding = true
	n.transition(TransKeepToken)
	return nil
}

// ReleaseRequest is Release immediately followed by Request, fused for
// the pipelined-handoff hot path. When the token is about to leave to
// FOLLOW and NEXT already points at the same node, the re-request rides
// the outgoing PRIVILEGE (Requesting flag) instead of being a separate
// REQUEST message: the two-message sequence would have travelled the
// same FIFO channel back to back, so fusing them is observationally
// identical and halves the handoff's message count. Every grant the
// receiver processes this way also rewires a direct NEXT edge to the
// releaser, so clusters whose members contend steadily converge onto
// one-message handoffs regardless of the initial tree shape. All other
// cases (token stays local, frozen mid-recovery, NEXT elsewhere) fall
// back to the unfused pair.
func (n *Node) ReleaseRequest() error {
	if !n.inCS {
		return mutex.ErrNotInCS
	}
	if !n.staleCS && !n.frozen && n.follow != mutex.Nil && n.next == n.follow {
		n.inCS = false
		to := n.follow
		hops := n.followHops
		n.follow = mutex.Nil
		n.followHops = 0
		n.sendPrivilege(to, Privilege{Generation: n.gen, Epoch: n.epoch, Requesting: true, Hops: hops})
		n.transition(TransPassToken)
		n.trace(telemetry.TracePrivilege, to, to, n.gen, hops)
		n.requesting = true
		n.next = mutex.Nil
		n.transition(TransRequest)
		n.trace(telemetry.TraceRequest, to, n.id, 0, 0)
		return nil
	}
	if err := n.Release(); err != nil {
		return err
	}
	return n.Request()
}

// Regrant implements mutex.Regranter: it hands the critical section
// straight to another local claimant with no protocol interaction at
// all. From every peer's point of view the node simply never left its
// critical section — no message moves, no pointer changes, no Figure 4
// transition fires. Only the fencing generation advances (the holder
// owns the token and with it the counter), so the new hold is
// distinguishable from — and fences off — the one it replaces.
//
// Regrant reports false when the handoff is unavailable and the caller
// must take the ordinary Release path: mid-recovery (frozen), or when
// the current occupancy rides a token that recovery has since
// invalidated (staleCS) and the generation counter is no longer this
// node's to advance.
func (n *Node) Regrant() (bool, error) {
	if !n.inCS {
		return false, mutex.ErrNotInCS
	}
	if n.staleCS || n.frozen {
		return false, nil
	}
	n.grant()
	return true, nil
}

// Deliver implements procedure P2 (for REQUEST messages) and the grant
// path of P1 (for PRIVILEGE). Those two kinds unwrap into DeliverMsg,
// the one place their epoch gate, frozen deferral and handlers live.
func (n *Node) Deliver(from mutex.ID, m mutex.Message) error {
	switch msg := m.(type) {
	case Initialize:
		return n.deliverInitialize(from)
	case Request:
		return n.DeliverMsg(from, RequestMsg(msg))
	case Privilege:
		return n.DeliverMsg(from, PrivilegeMsg(msg))
	}
	if n.uninitialized {
		return n.errBeforeInit(m.Kind())
	}
	switch msg := m.(type) {
	case Probe:
		return n.deliverProbe(from, msg)
	case ProbeAck:
		return n.deliverProbeAck(from, msg)
	case Reorient:
		return n.deliverReorient(from, msg)
	case Join:
		return n.deliverJoin(from)
	case Welcome:
		return n.deliverWelcome(from, msg)
	default:
		return fmt.Errorf("%w: node %d got %T from %d", mutex.ErrUnexpectedMessage, n.id, m, from)
	}
}

// gateEpoch admits same-epoch traffic, silently annihilates messages from
// superseded epochs (their senders' requests and tokens were re-queued or
// regenerated by the recovery that bumped the epoch), and reacts to
// newer-epoch traffic — proof this node was excised by a recovery it
// never saw — by asking the sender for re-admission.
func (n *Node) gateEpoch(from mutex.ID, e uint32) bool {
	if e == n.epoch {
		return true
	}
	if e < n.epoch {
		n.event(EventStaleDrop, from, 0)
		return false
	}
	if e > n.joinAsked {
		n.joinAsked = e
		n.env.Send(from, Join{})
		n.event(EventJoinSent, from, 0)
	}
	return false
}

// deliverRequest is procedure P2 of Figure 3, verbatim:
//
//	if NEXT = 0 then            (* node I is a sink *)
//	    if HOLDING then send PRIVILEGE to Y; HOLDING := false
//	    else FOLLOW := Y
//	else send REQUEST(I, Y) to NEXT
//	NEXT := X
//
// Under WithPathCompression the final assignment becomes NEXT := Y —
// the Naimi–Trehel reversal — so the traversed forwarding chain
// collapses onto the requester instead of merely reversing edge by
// edge. Every other line is unchanged.
func (n *Node) deliverRequest(from mutex.ID, msg Request) error {
	if msg.From != from {
		return fmt.Errorf("%w: REQUEST at node %d claims sender %d but arrived from %d",
			mutex.ErrUnexpectedMessage, n.id, msg.From, from)
	}
	rev := msg.From
	if n.compress {
		rev = msg.Origin
	}
	if n.next == mutex.Nil { // sink
		if n.holding {
			n.sendPrivilege(msg.Origin, Privilege{Generation: n.gen, Epoch: n.epoch, Hops: addHop(msg.Hops)})
			n.holding = false
			n.next = rev
			n.transition(TransGrantFromHolding)
			n.trace(telemetry.TracePrivilege, msg.Origin, msg.Origin, n.gen, addHop(msg.Hops))
			return nil
		}
		// A sink that is requesting or executing stores the request: this
		// is the enqueue onto the implicit waiting queue.
		if n.follow != mutex.Nil {
			// Cannot happen: once FOLLOW is set the node also left the sink
			// state, so later requests are forwarded, not stored.
			return fmt.Errorf("%w: sink %d asked to overwrite FOLLOW=%d with %d",
				mutex.ErrUnexpectedMessage, n.id, n.follow, msg.Origin)
		}
		n.follow = msg.Origin
		n.followHops = addHop(msg.Hops)
		n.next = rev
		n.transition(TransSaveFollow)
		return nil
	}
	to := n.next
	n.sendRequest(to, Request{From: n.id, Origin: msg.Origin, Epoch: n.epoch, Hops: addHop(msg.Hops)})
	n.next = rev
	n.transition(TransForward)
	n.trace(telemetry.TraceForward, to, msg.Origin, 0, addHop(msg.Hops))
	return nil
}

// deliverPrivilege is the "wait until PRIVILEGE message is received" point
// of P1: the pending request is granted and the node enters its CS. A
// token carrying the Requesting flag then feeds the sender's pipelined
// re-request through procedure P2, exactly as a REQUEST(sender, sender)
// arriving right behind the token on the same FIFO channel would be.
func (n *Node) deliverPrivilege(from mutex.ID, msg Privilege) error {
	if !n.requesting {
		return fmt.Errorf("%w: node %d received PRIVILEGE without requesting", mutex.ErrUnexpectedMessage, n.id)
	}
	if n.holding || n.inCS {
		return fmt.Errorf("%w: node %d received PRIVILEGE while already holding the token",
			mutex.ErrUnexpectedMessage, n.id)
	}
	if msg.Generation < n.gen {
		// The token's counter can only grow; going backwards means a stale
		// or duplicated token, which the paper's fail-free model excludes.
		return fmt.Errorf("%w: node %d received PRIVILEGE generation %d below local %d",
			mutex.ErrUnexpectedMessage, n.id, msg.Generation, n.gen)
	}
	n.gen = msg.Generation
	n.requesting = false
	n.inCS = true
	n.grantHops = msg.Hops
	n.transition(TransReceiveToken)
	n.grant()
	if msg.Requesting {
		return n.deliverRequest(from, Request{From: from, Origin: from, Epoch: n.epoch})
	}
	return nil
}

// addHop advances a hop counter by one channel traversal, saturating
// instead of wrapping — a 64k-deep forwarding chain cannot occur in a
// healthy cluster, but a saturated counter degrades to "at least this
// far" rather than lying.
func addHop(h uint16) uint16 {
	if h == ^uint16(0) {
		return h
	}
	return h + 1
}

// Storage implements mutex.Node: the thesis's three scalar control
// variables (§6.4), the fencing-generation and recovery-epoch extensions
// (still constant), and the membership view the failure extension keeps —
// one liveness entry per cluster member, the first load-independent O(N)
// cost this hardening adds. Transient recovery state (deferred messages,
// pending probe acks) is reported as queue entries; it is empty outside a
// recovery window.
func (n *Node) Storage() mutex.Storage {
	return mutex.Storage{
		Scalars:      5, // HOLDING, NEXT, FOLLOW, fencing generation, epoch
		ArrayEntries: len(n.ids),
		QueueEntries: len(n.deferred) + len(n.awaiting),
		Bytes: 1 + 2*mutex.IntSize + GenSize + EpochSize +
			len(n.ids)*(mutex.IntSize+1) +
			len(n.deferred)*2*mutex.IntSize + len(n.awaiting)*mutex.IntSize,
	}
}

// trace emits one structured trace event when an observer is attached.
// Events are built from fields already in registers, passed by value,
// so the disabled and enabled paths both allocate nothing.
func (n *Node) trace(k telemetry.TraceKind, peer, origin mutex.ID, fence uint64, hops uint16) {
	if n.onTrace == nil {
		return
	}
	n.onTrace(telemetry.TraceEvent{
		Kind: k, Node: n.id, Peer: peer, Origin: origin,
		Fence: fence, Epoch: n.epoch, Hops: hops, Shard: -1,
	})
}

func (n *Node) transition(tr Transition) {
	if n.onTransition != nil {
		n.onTransition(tr, n.State())
	}
}

// ImplicitQueue deduces the system-wide waiting queue from a consistent
// set of node snapshots, as §3.2 describes: start at the token holder and
// follow the FOLLOW chain. The returned slice lists waiting nodes in grant
// order and excludes the holder itself. It returns an error if no holder
// exists or the chain is cyclic, both of which indicate an inconsistent
// snapshot under the paper's invariants.
func ImplicitQueue(snaps []Snapshot) ([]mutex.ID, error) {
	byID := make(map[mutex.ID]Snapshot, len(snaps))
	var holder mutex.ID
	holders := 0
	for _, s := range snaps {
		byID[s.ID] = s
		if s.HasToken() {
			holder = s.ID
			holders++
		}
	}
	if holders == 0 {
		return nil, fmt.Errorf("core: no token holder in snapshot set")
	}
	if holders > 1 {
		return nil, fmt.Errorf("core: %d token holders in snapshot set", holders)
	}
	var queue []mutex.ID
	seen := map[mutex.ID]bool{holder: true}
	for at := byID[holder].Follow; at != mutex.Nil; at = byID[at].Follow {
		if seen[at] {
			return nil, fmt.Errorf("core: FOLLOW chain cycles at node %d", at)
		}
		if _, ok := byID[at]; !ok {
			return nil, fmt.Errorf("core: FOLLOW chain leaves snapshot set at node %d", at)
		}
		seen[at] = true
		queue = append(queue, at)
	}
	return queue, nil
}

// LegalTransitions is the edge set of Figure 4's state-transition graph:
// for each (from, transition) pair, the state the node must land in. The
// automaton-conformance checker validates observed histories against it.
var LegalTransitions = map[State]map[Transition]State{
	StateN:  {TransRequest: StateR, TransForward: StateN},
	StateR:  {TransSaveFollow: StateRF, TransReceiveToken: StateE},
	StateRF: {TransForward: StateRF, TransReceiveToken: StateEF},
	StateE:  {TransSaveFollow: StateEF, TransKeepToken: StateH},
	StateEF: {TransForward: StateEF, TransPassToken: StateN},
	StateH:  {TransEnterHolding: StateE, TransGrantFromHolding: StateN},
}
