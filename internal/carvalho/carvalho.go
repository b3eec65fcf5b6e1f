// Package carvalho implements Carvalho and Roucairol's refinement of
// Ricart–Agrawala (CACM 1983), the thesis's §2.3 baseline.
//
// Between every pair of nodes there is one implicit permission; exactly
// one side holds it when no REPLY is in flight. A node enters its critical
// section when it holds the permission of every other node, and — the
// optimization — it keeps those permissions afterwards, so re-entering
// costs messages only for permissions lost to interleaved requests.
//
// Cost (thesis §2.3): between 0 and 2(N−1) messages per entry. A node
// repeatedly entering an uncontended section pays nothing.
package carvalho

import (
	"fmt"

	"dagmutex/internal/lclock"
	"dagmutex/internal/mutex"
)

// request asks the receiver for the pair permission it holds.
type request struct {
	Stamp lclock.Stamp
}

// Kind implements mutex.Message.
func (request) Kind() string { return "REQUEST" }

// Size implements mutex.Message.
func (request) Size() int { return 2 * mutex.IntSize }

// reply transfers the pair permission to the receiver.
type reply struct{}

// Kind implements mutex.Message.
func (reply) Kind() string { return "REPLY" }

// Size implements mutex.Message.
func (reply) Size() int { return 0 }

// Node is one Carvalho–Roucairol site.
type Node struct {
	id  mutex.ID
	ids []mutex.ID
	env mutex.Env

	clock lclock.Clock
	mine  lclock.Stamp

	requesting bool
	inCS       bool
	// auth[j] reports that this node holds the (id, j) pair permission.
	auth     map[mutex.ID]bool
	deferred []mutex.ID
}

var _ mutex.Node = (*Node)(nil)

// New constructs a node. Initial permissions: cfg.Holder holds the
// permission of every pair it belongs to (so it can enter for free, like
// an initial token holder); all other pairs are held by the lower ID.
func New(id mutex.ID, env mutex.Env, cfg mutex.Config) (*Node, error) {
	if err := cfg.CheckID(id); err != nil {
		return nil, err
	}
	if cfg.Holder == mutex.Nil {
		return nil, fmt.Errorf("%w: no initial permission holder designated", mutex.ErrBadConfig)
	}
	if err := cfg.CheckID(cfg.Holder); err != nil {
		return nil, fmt.Errorf("holder: %w", err)
	}
	n := &Node{
		id:   id,
		ids:  append([]mutex.ID(nil), cfg.IDs...),
		env:  env,
		auth: make(map[mutex.ID]bool, len(cfg.IDs)),
	}
	for _, j := range cfg.IDs {
		if j == id {
			continue
		}
		switch {
		case id == cfg.Holder:
			n.auth[j] = true
		case j == cfg.Holder:
			n.auth[j] = false
		default:
			n.auth[j] = id < j
		}
	}
	return n, nil
}

// Builder adapts New to the mutex.Builder signature.
func Builder(id mutex.ID, env mutex.Env, cfg mutex.Config) (mutex.Node, error) {
	return New(id, env, cfg)
}

// ID implements mutex.Node.
func (n *Node) ID() mutex.ID { return n.id }

// Request implements mutex.Node: ask only the peers whose permission is
// missing; with all permissions cached the entry is free.
func (n *Node) Request() error {
	if n.requesting || n.inCS {
		return mutex.ErrOutstanding
	}
	n.requesting = true
	n.mine = lclock.Stamp{Seq: n.clock.Tick(), Node: n.id}
	missing := false
	for _, j := range n.ids {
		if j != n.id && !n.auth[j] {
			missing = true
			n.env.Send(j, request{Stamp: n.mine})
		}
	}
	if !missing {
		n.enter()
	}
	return nil
}

// Release implements mutex.Node: hand the pair permission to every
// deferred requester.
func (n *Node) Release() error {
	if !n.inCS {
		return mutex.ErrNotInCS
	}
	n.inCS = false
	n.mine = lclock.Stamp{}
	for _, j := range n.deferred {
		n.auth[j] = false
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
		switch {
		case n.inCS:
			n.deferred = append(n.deferred, from)
		case n.requesting && n.mine.Less(msg.Stamp):
			// Our pending request wins; hold the permission until release.
			n.deferred = append(n.deferred, from)
		case n.requesting:
			// The peer's request precedes ours: surrender the permission
			// and immediately re-request it, since we still need it.
			n.auth[from] = false
			n.env.Send(from, reply{})
			n.env.Send(from, request{Stamp: n.mine})
		default:
			n.auth[from] = false
			n.env.Send(from, reply{})
		}
		return nil
	case reply:
		if !n.requesting {
			return fmt.Errorf("%w: REPLY at node %d without a request", mutex.ErrUnexpectedMessage, n.id)
		}
		n.auth[from] = true
		for _, j := range n.ids {
			if j != n.id && !n.auth[j] {
				return nil
			}
		}
		n.enter()
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

// Storage implements mutex.Node: the N−1 entry permission vector is the
// structural price of the optimization.
func (n *Node) Storage() mutex.Storage {
	return mutex.Storage{
		Scalars:      2,
		ArrayEntries: len(n.auth),
		QueueEntries: len(n.deferred),
		Bytes:        2*mutex.IntSize + len(n.auth) + len(n.deferred)*mutex.IntSize,
	}
}
