// Package raymond implements Raymond's tree-based token algorithm (ACM
// TOCS 1989), the closest predecessor of the thesis's DAG algorithm and
// its main baseline (thesis §2.7).
//
// Nodes sit on an unrooted logical tree. Each keeps HOLDER (the neighbor
// in whose direction the token lies), USING, ASKED, and a FIFO queue of
// neighbors (possibly including itself) with outstanding requests. A
// request travels hop by hop toward the token; the token retraces the path
// and re-points HOLDER as it moves.
//
// Costs (thesis §2.7, §6): between 0 and 2D messages per entry and a
// worst-case synchronization delay of D hops, where D is the diameter of
// the tree — against the DAG algorithm's D+1 worst-case messages and
// constant synchronization delay of 1.
package raymond

import (
	"fmt"

	"dagmutex/internal/mutex"
)

// request asks the neighbor it is sent to for the token on the sender's
// behalf. It carries no payload: Raymond's algorithm orders requests by
// arrival, not by sequence number.
type request struct{}

// Kind implements mutex.Message.
func (request) Kind() string { return "REQUEST" }

// Size implements mutex.Message.
func (request) Size() int { return 0 }

// privilege is the token.
type privilege struct{}

// Kind implements mutex.Message.
func (privilege) Kind() string { return "PRIVILEGE" }

// Size implements mutex.Message.
func (privilege) Size() int { return 0 }

// Node is one site running Raymond's algorithm.
type Node struct {
	id  mutex.ID
	env mutex.Env

	holder mutex.ID // self when this node has the token
	using  bool
	asked  bool
	queue  []mutex.ID // FIFO of requesters: neighbors, possibly self

	requesting bool
}

var _ mutex.Node = (*Node)(nil)

// New constructs a node. cfg.Holder is the initial token holder and
// cfg.Parent must orient every other node toward it.
func New(id mutex.ID, env mutex.Env, cfg mutex.Config) (*Node, error) {
	if err := cfg.CheckID(id); err != nil {
		return nil, err
	}
	if cfg.Holder == mutex.Nil {
		return nil, fmt.Errorf("%w: no initial token holder designated", mutex.ErrBadConfig)
	}
	n := &Node{id: id, env: env}
	if cfg.Holder == id {
		n.holder = id
	} else {
		p, ok := cfg.Parent[id]
		if !ok || p == mutex.Nil || p == id {
			return nil, fmt.Errorf("%w: node %d lacks a parent toward holder %d",
				mutex.ErrBadConfig, id, cfg.Holder)
		}
		n.holder = p
	}
	return n, nil
}

// Builder adapts New to the mutex.Builder signature.
func Builder(id mutex.ID, env mutex.Env, cfg mutex.Config) (mutex.Node, error) {
	return New(id, env, cfg)
}

// ID implements mutex.Node.
func (n *Node) ID() mutex.ID { return n.id }

// Request implements mutex.Node: enqueue self, then run the two standard
// routines.
func (n *Node) Request() error {
	if n.requesting || n.using {
		return mutex.ErrOutstanding
	}
	n.requesting = true
	n.queue = append(n.queue, n.id)
	n.assignPrivilege()
	n.makeRequest()
	return nil
}

// Release implements mutex.Node.
func (n *Node) Release() error {
	if !n.using {
		return mutex.ErrNotInCS
	}
	n.using = false
	n.assignPrivilege()
	n.makeRequest()
	return nil
}

// Deliver implements mutex.Node.
func (n *Node) Deliver(from mutex.ID, m mutex.Message) error {
	switch m.(type) {
	case request:
		n.queue = append(n.queue, from)
	case privilege:
		if n.holder == n.id {
			return fmt.Errorf("%w: node %d received PRIVILEGE while holding", mutex.ErrUnexpectedMessage, n.id)
		}
		n.holder = n.id
		n.asked = false
	default:
		return fmt.Errorf("%w: %T", mutex.ErrUnexpectedMessage, m)
	}
	n.assignPrivilege()
	n.makeRequest()
	return nil
}

// assignPrivilege is Raymond's first standard routine: a token-holding,
// idle node with queued requests serves the head — locally if the head is
// itself, otherwise by passing the token toward the requester.
func (n *Node) assignPrivilege() {
	if n.holder != n.id || n.using || len(n.queue) == 0 {
		return
	}
	head := n.queue[0]
	n.queue = n.queue[1:]
	if head == n.id {
		n.using = true
		n.requesting = false
		n.env.Granted(0)
		return
	}
	n.holder = head
	n.asked = false
	n.env.Send(head, privilege{})
}

// makeRequest is Raymond's second standard routine: a node without the
// token, with queued requests, and with no REQUEST already outstanding
// forwards a single REQUEST toward the token.
func (n *Node) makeRequest() {
	if n.holder == n.id || n.asked || len(n.queue) == 0 {
		return
	}
	n.asked = true
	n.env.Send(n.holder, request{})
}

// Storage implements mutex.Node: HOLDER, USING, ASKED plus the local FIFO
// queue — the per-node structure the thesis's algorithm does away with.
func (n *Node) Storage() mutex.Storage {
	return mutex.Storage{
		Scalars:      3,
		QueueEntries: len(n.queue),
		Bytes:        2 + mutex.IntSize + len(n.queue)*mutex.IntSize,
	}
}
