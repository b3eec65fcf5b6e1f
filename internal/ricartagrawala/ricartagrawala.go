// Package ricartagrawala implements Ricart and Agrawala's optimal
// assertion-based algorithm (CACM 1981), the thesis's §2.2 baseline.
//
// A requester stamps its request with a (sequence, id) pair and sends
// REQUEST to all other sites; a site replies immediately unless it is in
// its critical section or requesting with an earlier stamp, in which case
// the REPLY is deferred until it leaves the section. A node with N−1
// replies may enter.
//
// Cost (thesis §2.2): exactly 2(N−1) messages per entry, independent of
// topology and load.
package ricartagrawala

import (
	"fmt"

	"dagmutex/internal/lclock"
	"dagmutex/internal/mutex"
)

// request carries the requester's totally ordered stamp.
type request struct {
	Stamp lclock.Stamp
}

// Kind implements mutex.Message.
func (request) Kind() string { return "REQUEST" }

// Size implements mutex.Message: sequence number + node id.
func (request) Size() int { return 2 * mutex.IntSize }

// reply grants the sender's permission (combining the ACKNOWLEDGE and
// RELEASE roles of Lamport's algorithm, per the thesis).
type reply struct{}

// Kind implements mutex.Message.
func (reply) Kind() string { return "REPLY" }

// Size implements mutex.Message.
func (reply) Size() int { return 0 }

// Node is one Ricart–Agrawala site.
type Node struct {
	id  mutex.ID
	ids []mutex.ID
	env mutex.Env

	clock lclock.Clock
	mine  lclock.Stamp // zero when not requesting

	requesting bool
	inCS       bool
	replies    int
	deferred   []mutex.ID
}

var _ mutex.Node = (*Node)(nil)

// New constructs a node. cfg.Holder is ignored: the algorithm has no
// token and any node may request first.
func New(id mutex.ID, env mutex.Env, cfg mutex.Config) (*Node, error) {
	if err := cfg.CheckID(id); err != nil {
		return nil, err
	}
	ids := make([]mutex.ID, len(cfg.IDs))
	copy(ids, cfg.IDs)
	return &Node{id: id, ids: ids, env: env}, nil
}

// Builder adapts New to the mutex.Builder signature.
func Builder(id mutex.ID, env mutex.Env, cfg mutex.Config) (mutex.Node, error) {
	return New(id, env, cfg)
}

// ID implements mutex.Node.
func (n *Node) ID() mutex.ID { return n.id }

// Request implements mutex.Node: stamp and broadcast.
func (n *Node) Request() error {
	if n.requesting || n.inCS {
		return mutex.ErrOutstanding
	}
	n.requesting = true
	n.replies = 0
	n.mine = lclock.Stamp{Seq: n.clock.Tick(), Node: n.id}
	if len(n.ids) == 1 {
		n.enter()
		return nil
	}
	for _, j := range n.ids {
		if j != n.id {
			n.env.Send(j, request{Stamp: n.mine})
		}
	}
	return nil
}

// Release implements mutex.Node: answer every deferred request.
func (n *Node) Release() error {
	if !n.inCS {
		return mutex.ErrNotInCS
	}
	n.inCS = false
	n.mine = lclock.Stamp{}
	for _, j := range n.deferred {
		n.env.Send(j, reply{})
	}
	n.deferred = n.deferred[:0]
	return nil
}

// Deliver implements mutex.Node.
func (n *Node) Deliver(from mutex.ID, m mutex.Message) error {
	switch msg := m.(type) {
	case request:
		n.clock.Witness(msg.Stamp.Seq)
		// Defer while in the CS, or while requesting with higher priority.
		if n.inCS || (n.requesting && n.mine.Less(msg.Stamp)) {
			n.deferred = append(n.deferred, from)
			return nil
		}
		n.env.Send(from, reply{})
		return nil
	case reply:
		if !n.requesting {
			return fmt.Errorf("%w: REPLY at node %d without a request", mutex.ErrUnexpectedMessage, n.id)
		}
		n.replies++
		if n.replies == len(n.ids)-1 {
			n.enter()
		}
		return nil
	default:
		return fmt.Errorf("%w: %T", mutex.ErrUnexpectedMessage, m)
	}
}

func (n *Node) enter() {
	n.requesting = false
	n.inCS = true
	n.env.Granted(0)
}

// Storage implements mutex.Node: a clock, a stamp, a reply counter and
// the deferred set (up to N−1 entries).
func (n *Node) Storage() mutex.Storage {
	return mutex.Storage{
		Scalars:      3,
		QueueEntries: len(n.deferred),
		Bytes:        3*mutex.IntSize + len(n.deferred)*mutex.IntSize,
	}
}
