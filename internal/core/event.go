package core

import (
	"fmt"

	"dagmutex/internal/mutex"
	"dagmutex/internal/telemetry"
)

// EventKind labels one event on a node's observer stream (see
// WithObserver).
type EventKind uint8

// The protocol's messages and grants share their numbers with the
// telemetry kinds they map to (see Event.Trace).
const (
	// EventRequest: the node sent REQUEST(I, I) (transition 1).
	EventRequest = EventKind(telemetry.TraceRequest)
	// EventForward: the node forwarded a request (transition 3).
	EventForward = EventKind(telemetry.TraceForward)
	// EventPrivilege: the node dispatched the token (transition 7 or 8).
	EventPrivilege = EventKind(telemetry.TracePrivilege)
	// EventGrant: the node entered its critical section under a fresh
	// fence (transition 4 or 6; none for a Regrant or a recovery).
	EventGrant = EventKind(telemetry.TraceGrant)
)

// The other kinds: the rest of Figure 4, the failure subsystem's steps in
// rough lifecycle order, and INIT.
const (
	// EventTransition: a transition that sends and grants nothing — 2 (a
	// sink saves a request in FOLLOW) or 5 (the node keeps the token).
	EventTransition EventKind = EventGrant + 1 + iota
	// EventPeerDown: a peer was marked dead (detector or probe evidence).
	EventPeerDown
	// EventPeerUp: a dead-marked peer was heard from again.
	EventPeerUp
	// EventProbe: this node, as coordinator, started a probe round.
	EventProbe
	// EventFreeze: this node acknowledged a probe and froze.
	EventFreeze
	// EventRegenerate: the token was lost; a fresh one was minted here.
	EventRegenerate
	// EventAdopt: a surviving token was found; its holder is the new root.
	EventAdopt
	// EventReorient: this node applied its rebuilt orientation.
	EventReorient
	// EventQuorumLost: a death left the survivors without a majority, so
	// recovery (and in particular regeneration) is refused.
	EventQuorumLost
	// EventStaleDrop: a message from a superseded epoch was annihilated.
	EventStaleDrop
	// EventJoinSent: newer-epoch traffic revealed this node was excised;
	// it asked the sender for re-admission.
	EventJoinSent
	// EventWelcome: this node was re-admitted into a newer epoch (Peer is
	// the sponsor) or re-admitted a returning peer (see PeerUp).
	EventWelcome
	// EventPlanReorient: this node, holding the token, started a planned
	// reshape epoch toward an observed hot requester (Peer is the target).
	EventPlanReorient
	// EventInit: a node built with NewUninitialized completed INIT.
	EventInit
)

// kindNames names the kinds after the protocol's; a recovery kind's name
// is the Detail of its RECOVERY trace event.
var kindNames = [...]string{
	EventTransition:   "TRANSITION",
	EventPeerDown:     "PEER-DOWN",
	EventPeerUp:       "PEER-UP",
	EventProbe:        "PROBE",
	EventFreeze:       "FREEZE",
	EventRegenerate:   "REGENERATE",
	EventAdopt:        "ADOPT",
	EventReorient:     "REORIENT",
	EventQuorumLost:   "QUORUM-LOST",
	EventStaleDrop:    "STALE-DROP",
	EventJoinSent:     "JOIN",
	EventWelcome:      "WELCOME",
	EventPlanReorient: "PLAN-REORIENT",
	EventInit:         "INIT",
}

// String names the event kind for traces.
func (k EventKind) String() string {
	switch {
	case k >= EventRequest && k <= EventGrant:
		return telemetry.TraceKind(k).String()
	case k >= EventTransition && int(k) < len(kindNames):
		return kindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// EventSet is a set of event kinds, bit 1<<k for kind k: what an
// observer subscribes to.
type EventSet uint32

// Has reports whether k is in the set.
func (s EventSet) Has(k EventKind) bool { return s&(1<<k) != 0 }

const (
	// TransitionEvents holds every kind that carries a Figure 4
	// transition: what the automaton checker reads.
	TransitionEvents EventSet = 1<<(EventTransition+1) - 1<<EventRequest
	// RecoveryEvents holds the failure subsystem's kinds.
	RecoveryEvents EventSet = 1<<(EventPlanReorient+1) - 1<<EventPeerDown
	// TracedEvents holds every kind with a telemetry form (see
	// Event.Trace).
	TracedEvents EventSet = 1<<(EventGrant+1) - 1<<EventRequest | RecoveryEvents
)

// Event is one observation on a node's stream, passed by value. A
// protocol event carries the causal identity already on the wire — the
// request's Origin and the fencing generation — so a grant's whole
// request→forward→privilege→grant chain shares one trace ID without any
// new message fields.
type Event struct {
	Kind EventKind
	// Transition is the Figure 4 transition the event made (zero when it
	// made none) and State the node's state after the event.
	Transition Transition
	State      State
	// Node is the observing node; Peer the other node involved (a sent
	// message's destination; the dead peer, coordinator, root or sponsor
	// of a recovery step), Nil when none.
	Node, Peer mutex.ID
	// Origin is the requester whose causal chain a protocol event belongs
	// to (the REQUEST's Y field).
	Origin mutex.ID
	// Fence is the fencing generation, when meaningful: the granted one on
	// GRANT, the one riding the token on PRIVILEGE, the mint base on
	// EventRegenerate, the local generation on other recovery steps.
	Fence uint64
	Epoch uint32 // the node's recovery epoch
	// Hops is the request-path length: the hops so far on FORWARD (and on
	// a request saved in FOLLOW), the granted path on PRIVILEGE and GRANT.
	Hops uint16
}

// Trace maps the event into the telemetry vocabulary, the one place the
// node's events become trace events: a protocol kind keeps its name, a
// recovery kind becomes RECOVERY with its own name as Detail. Kinds
// outside TracedEvents map to a zero Kind.
func (e Event) Trace() telemetry.TraceEvent {
	t := telemetry.TraceEvent{Node: e.Node, Peer: e.Peer, Origin: e.Origin,
		Fence: e.Fence, Epoch: e.Epoch, Hops: e.Hops, Shard: -1}
	switch {
	case e.Kind >= EventRequest && e.Kind <= EventGrant:
		t.Kind = telemetry.TraceKind(e.Kind)
	case RecoveryEvents.Has(e.Kind):
		t.Kind, t.Detail = telemetry.TraceRecovery, e.Kind.String()
	}
	return t
}

// WithObserver subscribes fn to the node's events of the kinds in want.
// The node checks want before it builds an event, so fn is never called
// for — and the node spends nothing on — kinds it did not ask for.
//
// fn runs inside the node's handlers: it must not block, must not call
// back into the node, and must itself be allocation-free to preserve the
// hot path's allocation budget (feed telemetry.Counter/Histogram
// instruments, or copy the event into a preallocated ring).
func WithObserver(want EventSet, fn func(Event)) Option {
	return func(n *Node) { n.want, n.observe = want, fn }
}

// emit reports one event when the observer wants its kind. The check is
// inlined at every site and the event is built after it, in report, from
// fields already in registers and passed by value: an unobserved kind
// costs a test and a branch, and no path allocates.
func (n *Node) emit(k EventKind, tr Transition, peer, origin mutex.ID, fence uint64, hops uint16) {
	if n.want.Has(k) {
		n.report(k, tr, peer, origin, fence, hops)
	}
}

func (n *Node) report(k EventKind, tr Transition, peer, origin mutex.ID, fence uint64, hops uint16) {
	n.observe(Event{Kind: k, Transition: tr, State: n.State(), Node: n.id, Peer: peer,
		Origin: origin, Fence: fence, Epoch: n.epoch, Hops: hops})
}
