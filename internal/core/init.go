package core

import (
	"fmt"

	"dagmutex/internal/mutex"
)

// Initialize is the INITIALIZE(I) message of the thesis's Figure 5: the
// initial token holder floods it outward, and every node points NEXT at
// the neighbor the message arrived from — orienting every tree edge
// toward the holder.
type Initialize struct{}

// Kind implements mutex.Message.
func (Initialize) Kind() string { return "INITIALIZE" }

// Size implements mutex.Message: the message carries the sender identity.
func (Initialize) Size() int { return mutex.IntSize }

// NewUninitialized constructs a node that derives its NEXT orientation at
// runtime by executing the Figure 5 INIT procedure, instead of being
// configured with a precomputed Parent pointer. cfg.Neighbors must list
// the node's tree neighbors; cfg.Holder designates the initial holder,
// which must have StartInit called on it to begin the flood. Request and
// protocol messages are rejected until initialization completes.
func NewUninitialized(id mutex.ID, env mutex.Env, cfg mutex.Config, opts ...Option) (*Node, error) {
	if err := cfg.CheckID(id); err != nil {
		return nil, err
	}
	if cfg.Holder == mutex.Nil {
		return nil, fmt.Errorf("%w: no initial token holder designated", mutex.ErrBadConfig)
	}
	neighbors, ok := cfg.Neighbors[id]
	if !ok || (len(neighbors) == 0 && len(cfg.IDs) > 1) {
		return nil, fmt.Errorf("%w: node %d has no neighbor list", mutex.ErrBadConfig, id)
	}
	n := &Node{
		id:            id,
		env:           env,
		ids:           cfg.IDs,
		uninitialized: true,
		cold: &cold{
			isInitHolder: cfg.Holder == id,
			neighbors:    append([]mutex.ID(nil), neighbors...),
		},
	}
	n.probeEnv()
	for _, o := range opts {
		o(n)
	}
	return n, nil
}

// UninitializedBuilder adapts NewUninitialized to mutex.Builder.
func UninitializedBuilder(id mutex.ID, env mutex.Env, cfg mutex.Config) (mutex.Node, error) {
	return NewUninitialized(id, env, cfg)
}

// StartInit runs the holder branch of Figure 5: adopt the token, become
// the sink, and send INITIALIZE to every neighbor. It must be called
// exactly once, on the configured holder, before any Request.
func (n *Node) StartInit() error {
	if !n.uninitialized {
		return fmt.Errorf("%w: node %d is already initialized", mutex.ErrBadConfig, n.id)
	}
	if !n.cold.isInitHolder {
		return fmt.Errorf("%w: node %d is not the designated holder", mutex.ErrBadConfig, n.id)
	}
	n.uninitialized = false
	n.holding = true
	n.next = mutex.Nil
	n.follow = mutex.Nil
	for _, j := range n.cold.neighbors {
		n.env.Send(j, Initialize{})
	}
	n.emit(EventInit, 0, mutex.Nil, mutex.Nil, 0, 0)
	return nil
}

// Initialized reports whether the node has completed INIT (nodes built
// with New are initialized from the start).
func (n *Node) Initialized() bool { return !n.uninitialized }

// deliverInitialize is the non-holder branch of Figure 5: wait for
// INITIALIZE(J), point NEXT at J, and forward to the other neighbors.
func (n *Node) deliverInitialize(from mutex.ID) error {
	if !n.uninitialized {
		return fmt.Errorf("%w: node %d received INITIALIZE twice", mutex.ErrUnexpectedMessage, n.id)
	}
	n.uninitialized = false
	n.holding = false
	n.next = from
	n.follow = mutex.Nil
	for _, j := range n.cold.neighbors {
		if j != from {
			n.env.Send(j, Initialize{})
		}
	}
	n.emit(EventInit, 0, mutex.Nil, mutex.Nil, 0, 0)
	return nil
}
