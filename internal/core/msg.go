package core

import (
	"fmt"

	"dagmutex/internal/mutex"
)

// This file is the by-value route for the algorithm's two hot messages.
// Handing a Request or Privilege struct to Env.Send(to, mutex.Message)
// converts it to an interface, and that conversion is a heap object per
// message — the only one a grant costs anywhere in the stack. A host
// that can carry the message as a plain value instead implements
// MsgSender on its Env and calls DeliverMsg on the node; core probes the
// capability once, in New, and from then on every REQUEST and PRIVILEGE
// it sends travels as a Msg. The boxed route (Env.Send / Deliver) stays,
// and is the only one for the recovery, INIT and heartbeat messages.
//
// Who implements MsgSender: the live runtime's Env (forwarding to a link
// that can move a Msg — the Local mailboxes, the TCP host with DAGCodec)
// and the simulator's (internal/cluster, the one simulated host, which
// boxes only for an observer, a drop rule or a node without DeliverMsg).
// Who lacks it on purpose: every Env that wants to see each message as a
// core.Request / core.Privilege *value* — cmd/dagtrace's replayer and
// bench's timing shims, which type-assert m.(core.Privilege) to stamp
// the token. Wrapping an Env (or a Node) in a type without the method is
// all it takes to stay on the boxed route; both routes run the same
// handlers and interoperate in one cluster.

// MsgKind tags which of the two hot messages a Msg carries.
type MsgKind uint8

// The kinds of Msg. The zero MsgKind is "no message": hosts use it to
// mean "this envelope travels boxed", and DeliverMsg rejects it.
const (
	MsgNone MsgKind = iota
	MsgRequest
	MsgPrivilege
)

// String returns the mutex.Message kind name the boxed message reports.
func (k MsgKind) String() string {
	switch k {
	case MsgRequest:
		return Request{}.Kind()
	case MsgPrivilege:
		return Privilege{}.Kind()
	default:
		return fmt.Sprintf("MsgKind(%d)", uint8(k))
	}
}

// Msg is a REQUEST or a PRIVILEGE as a plain value: the union of the two
// structs' fields plus the kind tag, pointer-free and 24 bytes, so hosts
// can queue, pool and copy it without the garbage collector ever seeing
// it. Build one with RequestMsg or PrivilegeMsg and read it back with
// Request or Privilege; Epoch and Hops mean the same in both kinds.
type Msg struct {
	Generation   uint64   // PRIVILEGE
	From, Origin mutex.ID // REQUEST
	Epoch        uint32
	Hops         uint16
	Requesting   bool // PRIVILEGE
	Kind         MsgKind
}

// RequestMsg wraps r.
func RequestMsg(r Request) Msg {
	return Msg{Kind: MsgRequest, From: r.From, Origin: r.Origin, Epoch: r.Epoch, Hops: r.Hops}
}

// PrivilegeMsg wraps p.
func PrivilegeMsg(p Privilege) Msg {
	return Msg{Kind: MsgPrivilege, Generation: p.Generation, Epoch: p.Epoch, Requesting: p.Requesting, Hops: p.Hops}
}

// Request returns the REQUEST m carries (meaningful for MsgRequest).
func (m Msg) Request() Request {
	return Request{From: m.From, Origin: m.Origin, Epoch: m.Epoch, Hops: m.Hops}
}

// Privilege returns the PRIVILEGE m carries (meaningful for MsgPrivilege).
func (m Msg) Privilege() Privilege {
	return Privilege{Generation: m.Generation, Epoch: m.Epoch, Requesting: m.Requesting, Hops: m.Hops}
}

// Boxed converts m to the mutex.Message the boxed route carries — a
// core.Request or core.Privilege value, never a pointer — or nil when m
// has no kind. This is the allocation the by-value route exists to
// avoid: hosts call it only at the last moment, where a by-value message
// meets a peer, codec or node that lacks the capability.
func (m Msg) Boxed() mutex.Message {
	switch m.Kind {
	case MsgRequest:
		return m.Request()
	case MsgPrivilege:
		return m.Privilege()
	default:
		return nil
	}
}

// MsgSender is the optional Env capability that selects the by-value
// route: when the Env passed to New (or NewUninitialized) implements it,
// the node sends every REQUEST and PRIVILEGE through SendMsg and never
// boxes one. SendMsg has Env.Send's contract: reliable, FIFO per
// (sender, receiver) pair — and FIFO with Send itself, since recovery
// traffic on the boxed route shares the channel.
type MsgSender interface {
	SendMsg(to mutex.ID, m Msg)
}

// sendRequest sends r to to on the route chosen at construction.
func (n *Node) sendRequest(to mutex.ID, r Request) {
	if n.msgEnv != nil {
		n.msgEnv.SendMsg(to, RequestMsg(r))
		return
	}
	n.env.Send(to, r)
}

// sendPrivilege sends p to to on the route chosen at construction.
func (n *Node) sendPrivilege(to mutex.ID, p Privilege) {
	if n.msgEnv != nil {
		n.msgEnv.SendMsg(to, PrivilegeMsg(p))
		return
	}
	n.env.Send(to, p)
}

// DeliverMsg is Deliver for a REQUEST or PRIVILEGE carried by value:
// the epoch gate, the frozen deferral and procedures P2 / P1's grant
// path. Deliver's own Request and Privilege cases unwrap into it, so
// the two routes cannot drift apart. A Msg with no kind set is an
// error.
func (n *Node) DeliverMsg(from mutex.ID, m Msg) error {
	if m.Kind != MsgRequest && m.Kind != MsgPrivilege {
		return fmt.Errorf("%w: node %d got a by-value message of %v from %d",
			mutex.ErrUnexpectedMessage, n.id, m.Kind, from)
	}
	if n.uninitialized {
		return n.errBeforeInit(m.Kind.String())
	}
	if !n.gateEpoch(from, m.Epoch) {
		return nil
	}
	if n.frozen {
		n.deferred = append(n.deferred, deferredMsg{from: from, msg: m})
		return nil
	}
	if m.Kind == MsgRequest {
		return n.deliverRequest(from, m.Request())
	}
	return n.deliverPrivilege(from, m.Privilege())
}

func (n *Node) errBeforeInit(kind string) error {
	return fmt.Errorf("%w: node %d got %s before INIT completed", mutex.ErrUnexpectedMessage, n.id, kind)
}
