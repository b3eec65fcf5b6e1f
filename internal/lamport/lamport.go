// Package lamport implements Lamport's distributed mutual-exclusion
// algorithm (CACM 1978), the thesis's §2.1 baseline and the ancestor of
// the assertion-based family.
//
// Every node keeps a logical clock and a replica of the global request
// queue, totally ordered by (sequence, id). A requester broadcasts
// REQUEST; receivers enqueue it and ACKNOWLEDGE. A node enters its
// critical section when its own request heads its queue copy and it has
// witnessed a later-stamped message from every other site. RELEASE is
// broadcast on exit.
//
// Cost (thesis §2.1): 3(N−1) messages per entry — (N−1) of each kind.
package lamport

import (
	"fmt"
	"sort"

	"dagmutex/internal/lclock"
	"dagmutex/internal/mutex"
)

// request is a stamped critical-section request.
type request struct {
	Stamp lclock.Stamp
}

// Kind implements mutex.Message.
func (request) Kind() string { return "REQUEST" }

// Size implements mutex.Message.
func (request) Size() int { return 2 * mutex.IntSize }

// ack acknowledges a request, carrying the replier's clock.
type ack struct {
	Clock uint64
}

// Kind implements mutex.Message.
func (ack) Kind() string { return "ACKNOWLEDGE" }

// Size implements mutex.Message.
func (ack) Size() int { return mutex.IntSize }

// release removes the sender's request from every queue replica.
type release struct {
	Clock uint64
}

// Kind implements mutex.Message.
func (release) Kind() string { return "RELEASE" }

// Size implements mutex.Message.
func (release) Size() int { return mutex.IntSize }

// Node is one Lamport site.
type Node struct {
	id  mutex.ID
	ids []mutex.ID
	env mutex.Env

	clock lclock.Clock
	queue []lclock.Stamp // sorted replica of the request queue
	// latest[j] is the stamp of the most recent message witnessed from j;
	// entry requires latest[j] > mine for all j.
	latest map[mutex.ID]uint64

	mine       lclock.Stamp
	requesting bool
	inCS       bool
}

var _ mutex.Node = (*Node)(nil)

// New constructs a node; cfg.Holder is ignored (no token exists).
func New(id mutex.ID, env mutex.Env, cfg mutex.Config) (*Node, error) {
	if err := cfg.CheckID(id); err != nil {
		return nil, err
	}
	return &Node{
		id:     id,
		ids:    append([]mutex.ID(nil), cfg.IDs...),
		env:    env,
		latest: make(map[mutex.ID]uint64, len(cfg.IDs)),
	}, nil
}

// Builder adapts New to the mutex.Builder signature.
func Builder(id mutex.ID, env mutex.Env, cfg mutex.Config) (mutex.Node, error) {
	return New(id, env, cfg)
}

// ID implements mutex.Node.
func (n *Node) ID() mutex.ID { return n.id }

// Request implements mutex.Node: stamp, enqueue locally, broadcast.
func (n *Node) Request() error {
	if n.requesting || n.inCS {
		return mutex.ErrOutstanding
	}
	n.requesting = true
	n.mine = lclock.Stamp{Seq: n.clock.Tick(), Node: n.id}
	n.enqueue(n.mine)
	for _, j := range n.ids {
		if j != n.id {
			n.env.Send(j, request{Stamp: n.mine})
		}
	}
	n.tryEnter()
	return nil
}

// Release implements mutex.Node: dequeue own request and broadcast RELEASE.
func (n *Node) Release() error {
	if !n.inCS {
		return mutex.ErrNotInCS
	}
	n.inCS = false
	n.dequeue(n.mine)
	n.mine = lclock.Stamp{}
	c := n.clock.Tick()
	for _, j := range n.ids {
		if j != n.id {
			n.env.Send(j, release{Clock: c})
		}
	}
	return nil
}

// Deliver implements mutex.Node.
func (n *Node) Deliver(from mutex.ID, m mutex.Message) error {
	switch msg := m.(type) {
	case request:
		n.clock.Witness(msg.Stamp.Seq)
		n.witness(from, msg.Stamp.Seq)
		n.enqueue(msg.Stamp)
		n.env.Send(from, ack{Clock: n.clock.Tick()})
	case ack:
		n.clock.Witness(msg.Clock)
		n.witness(from, msg.Clock)
	case release:
		n.clock.Witness(msg.Clock)
		n.witness(from, msg.Clock)
		n.dequeueNode(from)
	default:
		return fmt.Errorf("%w: %T", mutex.ErrUnexpectedMessage, m)
	}
	n.tryEnter()
	return nil
}

func (n *Node) witness(from mutex.ID, c uint64) {
	if c > n.latest[from] {
		n.latest[from] = c
	}
}

func (n *Node) enqueue(s lclock.Stamp) {
	i := sort.Search(len(n.queue), func(i int) bool { return s.Less(n.queue[i]) })
	n.queue = append(n.queue, lclock.Stamp{})
	copy(n.queue[i+1:], n.queue[i:])
	n.queue[i] = s
}

func (n *Node) dequeue(s lclock.Stamp) {
	for i, q := range n.queue {
		if q == s {
			n.queue = append(n.queue[:i], n.queue[i+1:]...)
			return
		}
	}
}

// dequeueNode removes from's request; each node has at most one queued.
func (n *Node) dequeueNode(from mutex.ID) {
	for i, q := range n.queue {
		if q.Node == from {
			n.queue = append(n.queue[:i], n.queue[i+1:]...)
			return
		}
	}
}

// tryEnter checks Lamport's assertion: own request heads the queue and a
// later message has been witnessed from every other node.
func (n *Node) tryEnter() {
	if !n.requesting || len(n.queue) == 0 || n.queue[0] != n.mine {
		return
	}
	for _, j := range n.ids {
		if j != n.id && n.latest[j] <= n.mine.Seq {
			return
		}
	}
	n.requesting = false
	n.inCS = true
	n.env.Granted(0)
}

// Storage implements mutex.Node: the replicated queue (up to N entries)
// plus the N-entry witness vector — the overhead §6.4 contrasts with the
// DAG algorithm's three scalars.
func (n *Node) Storage() mutex.Storage {
	return mutex.Storage{
		Scalars:      2,
		ArrayEntries: len(n.latest),
		QueueEntries: len(n.queue),
		Bytes:        2*mutex.IntSize + len(n.latest)*mutex.IntSize + len(n.queue)*2*mutex.IntSize,
	}
}
