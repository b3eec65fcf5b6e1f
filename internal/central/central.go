// Package central implements the classical centralized mutual-exclusion
// scheme the thesis compares against in Chapter 6: one coordinator node
// keeps an explicit FIFO queue; everyone else exchanges REQUEST / GRANT /
// RELEASE messages with it.
//
// Costs (thesis §6):
//   - messages per entry: 3 for a non-coordinator (REQUEST, GRANT,
//     RELEASE), 0 for the coordinator itself — averaging 3 − 3/N;
//   - synchronization delay: 2 (RELEASE to the coordinator, then GRANT to
//     the next requester), against the DAG algorithm's 1.
package central

import (
	"fmt"

	"dagmutex/internal/mutex"
)

// request asks the coordinator for the critical section.
type request struct{}

// Kind implements mutex.Message.
func (request) Kind() string { return "REQUEST" }

// Size implements mutex.Message: the requester is the transport sender.
func (request) Size() int { return mutex.IntSize }

// grant gives the critical section to a requester.
type grant struct{}

// Kind implements mutex.Message.
func (grant) Kind() string { return "GRANT" }

// Size implements mutex.Message.
func (grant) Size() int { return 0 }

// release returns the critical section to the coordinator.
type release struct{}

// Kind implements mutex.Message.
func (release) Kind() string { return "RELEASE" }

// Size implements mutex.Message.
func (release) Size() int { return 0 }

// Node is one site of the centralized scheme. The node whose ID equals the
// configured coordinator additionally runs the coordinator role.
type Node struct {
	id    mutex.ID
	coord mutex.ID
	env   mutex.Env

	// Requester state.
	requesting bool
	inCS       bool

	// Coordinator state (used only when id == coord).
	busy  bool
	queue []mutex.ID
}

var _ mutex.Node = (*Node)(nil)

// New constructs a node. cfg.Holder designates the coordinator.
func New(id mutex.ID, env mutex.Env, cfg mutex.Config) (*Node, error) {
	if err := cfg.CheckID(id); err != nil {
		return nil, err
	}
	if cfg.Holder == mutex.Nil {
		return nil, fmt.Errorf("%w: no coordinator designated", mutex.ErrBadConfig)
	}
	if err := cfg.CheckID(cfg.Holder); err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	return &Node{id: id, coord: cfg.Holder, env: env}, nil
}

// Builder adapts New to the mutex.Builder signature.
func Builder(id mutex.ID, env mutex.Env, cfg mutex.Config) (mutex.Node, error) {
	return New(id, env, cfg)
}

// ID implements mutex.Node.
func (n *Node) ID() mutex.ID { return n.id }

// Request implements mutex.Node. The coordinator grants itself locally
// when free, costing zero messages.
func (n *Node) Request() error {
	if n.requesting || n.inCS {
		return mutex.ErrOutstanding
	}
	n.requesting = true
	if n.id == n.coord {
		n.admit(n.id)
		return nil
	}
	n.env.Send(n.coord, request{})
	return nil
}

// Release implements mutex.Node.
func (n *Node) Release() error {
	if !n.inCS {
		return mutex.ErrNotInCS
	}
	n.inCS = false
	if n.id == n.coord {
		n.busy = false
		n.dispatch()
		return nil
	}
	n.env.Send(n.coord, release{})
	return nil
}

// Deliver implements mutex.Node.
func (n *Node) Deliver(from mutex.ID, m mutex.Message) error {
	switch m.(type) {
	case request:
		if n.id != n.coord {
			return fmt.Errorf("%w: REQUEST at non-coordinator %d", mutex.ErrUnexpectedMessage, n.id)
		}
		n.admit(from)
		return nil
	case release:
		if n.id != n.coord {
			return fmt.Errorf("%w: RELEASE at non-coordinator %d", mutex.ErrUnexpectedMessage, n.id)
		}
		if !n.busy {
			return fmt.Errorf("%w: RELEASE while coordinator idle", mutex.ErrUnexpectedMessage)
		}
		n.busy = false
		n.dispatch()
		return nil
	case grant:
		if !n.requesting {
			return fmt.Errorf("%w: GRANT at node %d without a request", mutex.ErrUnexpectedMessage, n.id)
		}
		n.requesting = false
		n.inCS = true
		n.env.Granted(0)
		return nil
	default:
		return fmt.Errorf("%w: %T", mutex.ErrUnexpectedMessage, m)
	}
}

// admit either grants who immediately or queues it, coordinator-side.
func (n *Node) admit(who mutex.ID) {
	if n.busy {
		n.queue = append(n.queue, who)
		return
	}
	n.busy = true
	n.grantTo(who)
}

// dispatch hands the section to the head of the queue, if any.
func (n *Node) dispatch() {
	if len(n.queue) == 0 {
		return
	}
	head := n.queue[0]
	n.queue = n.queue[1:]
	n.busy = true
	n.grantTo(head)
}

func (n *Node) grantTo(who mutex.ID) {
	if who == n.id {
		n.requesting = false
		n.inCS = true
		n.env.Granted(0)
		return
	}
	n.env.Send(who, grant{})
}

// Storage implements mutex.Node. The coordinator's queue is the explicit
// structure the DAG algorithm eliminates.
func (n *Node) Storage() mutex.Storage {
	s := mutex.Storage{Scalars: 2, Bytes: 2}
	if n.id == n.coord {
		s.Scalars++ // busy flag
		s.QueueEntries = len(n.queue)
		s.Bytes += 1 + len(n.queue)*mutex.IntSize
	}
	return s
}
