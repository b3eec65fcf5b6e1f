package telemetry

import (
	"fmt"
	"strings"

	"dagmutex/internal/mutex"
)

// TraceKind classifies one structured trace event. The protocol kinds
// (REQUEST, FORWARD, PRIVILEGE, GRANT) follow a request's causal path:
// the origin issues a REQUEST, every intermediate node FORWARDs it, the
// sink dispatches the PRIVILEGE token back, and the origin's
// critical-section entry is the GRANT. The service kinds (RELEASE,
// REGRANT, EXPIRE) are the lock-service lifecycle around a grant, and
// RECOVERY carries one step of the failure subsystem, named in Detail,
// so one stream — and one renderer — covers the healthy hot path and
// the chaos path alike. core.Event.Trace produces the protocol and
// recovery kinds.
type TraceKind uint8

// Trace event kinds.
const (
	TraceRequest TraceKind = iota + 1
	TraceForward
	TracePrivilege
	TraceGrant
	TraceRelease
	TraceRegrant
	TraceExpire
	TraceRecovery
)

// String returns the event vocabulary's name for the kind.
func (k TraceKind) String() string {
	switch k {
	case TraceRequest:
		return "REQUEST"
	case TraceForward:
		return "FORWARD"
	case TracePrivilege:
		return "PRIVILEGE"
	case TraceGrant:
		return "GRANT"
	case TraceRelease:
		return "RELEASE"
	case TraceRegrant:
		return "REGRANT"
	case TraceExpire:
		return "EXPIRE"
	case TraceRecovery:
		return "RECOVERY"
	default:
		return fmt.Sprintf("TraceKind(%d)", uint8(k))
	}
}

// TraceEvent is one structured observation from a running node or
// service. Events are passed by value and built only from fields already
// in memory, so emitting one allocates nothing; observers that need to
// retain events copy them (they are plain data).
//
// The causal identity of a grant needs no new wire format: the request's
// Origin and the fencing generation it was granted under are both
// already on the wire (REQUEST carries Origin; PRIVILEGE carries the
// generation), and together they identify one grant uniquely — the
// fence is strictly monotonic per token, and exactly one origin receives
// each fence. TraceID is the pair.
type TraceEvent struct {
	// Kind classifies the event.
	Kind TraceKind
	// Node is the node the event happened at.
	Node mutex.ID
	// Peer is the message's destination, for kinds that send one
	// (REQUEST, FORWARD, PRIVILEGE); Nil otherwise.
	Peer mutex.ID
	// Origin is the requester whose causal chain this event belongs to
	// (the REQUEST's Y field); Nil when unknown.
	Origin mutex.ID
	// Fence is the fencing generation, where the event has one: the
	// granted generation on GRANT/REGRANT, the generation riding the
	// dispatched token on PRIVILEGE, the released hold's fence on
	// RELEASE/EXPIRE.
	Fence uint64
	// Epoch is the node's recovery epoch at the event.
	Epoch uint32
	// Hops is the request-path length, on kinds that track it (FORWARD
	// counts the hops so far; PRIVILEGE and GRANT the granted path).
	Hops uint16
	// Shard is the lock-service shard index, or -1 outside a sharded
	// service (a plain cluster).
	Shard int32
	// Detail carries the kind-specific annotation: the recovery step's
	// name on RECOVERY, the resource name on lock-service lifecycle events.
	Detail string
}

// TraceID is a grant's causal identity: the requester and the fence it
// was granted under. It is comparable, so it keys maps as is.
type TraceID struct {
	Origin mutex.ID
	Fence  uint64
}

// TraceID returns the event's causal identity — (Origin, Fence): all
// events of one request→forward→privilege→grant chain that know their
// origin and fence share it.
func (e TraceEvent) TraceID() TraceID { return TraceID{Origin: e.Origin, Fence: e.Fence} }

// String renders the event in the shared vocabulary used by dagtrace's
// live and chaos output:
//
//	node 2 FORWARD -> 3 origin=4 hops=1
//	node 3 PRIVILEGE -> 4 origin=4 fence=17 hops=2
//	node 4 GRANT origin=4 fence=17 hops=2
//	node 1 RECOVERY PEER-DOWN peer=3 epoch=1
func (e TraceEvent) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "node %d %s", e.Node, e.Kind)
	if e.Detail != "" {
		b.WriteByte(' ')
		b.WriteString(e.Detail)
	}
	if e.Peer != mutex.Nil {
		if e.Kind == TraceRecovery {
			fmt.Fprintf(&b, " peer=%d", e.Peer)
		} else {
			fmt.Fprintf(&b, " -> %d", e.Peer)
		}
	}
	if e.Origin != mutex.Nil {
		fmt.Fprintf(&b, " origin=%d", e.Origin)
	}
	if e.Fence != 0 {
		fmt.Fprintf(&b, " fence=%d", e.Fence)
	}
	if e.Hops != 0 {
		fmt.Fprintf(&b, " hops=%d", e.Hops)
	}
	if e.Epoch != 0 {
		fmt.Fprintf(&b, " epoch=%d", e.Epoch)
	}
	if e.Shard >= 0 {
		fmt.Fprintf(&b, " shard=%d", e.Shard)
	}
	return b.String()
}
