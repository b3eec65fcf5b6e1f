// Package check validates the correctness properties Chapter 5 of the
// thesis proves: the Figure 4 state automaton, the single-token invariant,
// Lemma 2's bounded path to a sink, and quiescent-state consistency. The
// experiment harness and the stress tests run these continuously.
package check

import (
	"errors"
	"fmt"

	"dagmutex/internal/cluster"
	"dagmutex/internal/core"
	"dagmutex/internal/mutex"
)

// Automaton validates every observed state transition of every DAG node
// against the legal edges of the thesis's Figure 4. Use Builder in place
// of core.Builder when constructing the cluster.
type Automaton struct {
	states      map[mutex.ID]core.State
	transitions int
	errs        []error
}

// NewAutomaton returns an empty conformance checker.
func NewAutomaton() *Automaton {
	return &Automaton{states: make(map[mutex.ID]core.State)}
}

// Builder is a mutex.Builder that constructs core nodes instrumented with
// this checker.
func (a *Automaton) Builder(id mutex.ID, env mutex.Env, cfg mutex.Config) (mutex.Node, error) {
	initial := core.StateN
	if cfg.Holder == id {
		initial = core.StateH
	}
	a.states[id] = initial
	return core.New(id, env, cfg, core.WithObserver(core.TransitionEvents, a.observe))
}

func (a *Automaton) observe(e core.Event) {
	if e.Transition == 0 { // a grant no transition led to: a Regrant or a recovery's
		return
	}
	id, tr, to := e.Node, e.Transition, e.State
	a.transitions++
	cur := a.states[id]
	want, legal := core.LegalTransitions[cur][tr]
	switch {
	case !legal:
		a.errs = append(a.errs,
			fmt.Errorf("node %d: transition %v illegal from state %v", id, tr, cur))
	case want != to:
		a.errs = append(a.errs,
			fmt.Errorf("node %d: transition %v from %v landed in %v, Figure 4 requires %v",
				id, tr, cur, to, want))
	}
	a.states[id] = to
}

// Transitions returns the number of transitions observed.
func (a *Automaton) Transitions() int { return a.transitions }

// Err returns the accumulated conformance violations, or nil.
func (a *Automaton) Err() error {
	if len(a.errs) == 0 {
		return nil
	}
	return errors.Join(a.errs...)
}

// Snapshots collects a core.Snapshot from every node of a cluster built
// from core (or Automaton) builders. It fails if any node is not a DAG
// node.
func Snapshots(c *cluster.Cluster) ([]core.Snapshot, error) {
	snaps := make([]core.Snapshot, 0, len(c.IDs()))
	for _, id := range c.IDs() {
		n, ok := c.Node(id).(interface{ Snapshot() core.Snapshot })
		if !ok {
			return nil, fmt.Errorf("check: node %d (%T) does not expose core snapshots", id, c.Node(id))
		}
		snaps = append(snaps, n.Snapshot())
	}
	return snaps, nil
}

// TokenCount returns how many nodes possess the token in the snapshot set.
// While a PRIVILEGE message is in flight the count is legitimately zero;
// it must never exceed one (thesis §5.1).
func TokenCount(snaps []core.Snapshot) int {
	holders := 0
	for _, s := range snaps {
		if s.HasToken() {
			holders++
		}
	}
	return holders
}

// SinkPaths verifies Lemma 2 on a snapshot set: from every node, following
// NEXT pointers reaches a node with NEXT = 0 in fewer than N steps. It is
// guaranteed only when no REQUEST is in flight (an in-transit request
// "carries" the edge it is traversing), so callers invoke it at message
// quiescence.
func SinkPaths(snaps []core.Snapshot) error {
	byID := make(map[mutex.ID]core.Snapshot, len(snaps))
	for _, s := range snaps {
		byID[s.ID] = s
	}
	n := len(snaps)
	for _, s := range snaps {
		steps := 0
		at := s
		for at.Next != mutex.Nil {
			nxt, ok := byID[at.Next]
			if !ok {
				return fmt.Errorf("check: node %d's NEXT=%d is not in the cluster", at.ID, at.Next)
			}
			at = nxt
			steps++
			if steps >= n {
				return fmt.Errorf("check: node %d's NEXT chain exceeds %d hops (Lemma 2 violated)", s.ID, n-1)
			}
		}
	}
	return nil
}

// Quiescent verifies the full steady-state invariant after a run has
// drained and all requests are served:
//
//   - exactly one node holds the token, idle (state H);
//   - that node is the unique sink;
//   - every FOLLOW pointer is clear;
//   - every node reaches the sink in fewer than N hops (Lemma 2).
func Quiescent(snaps []core.Snapshot) error {
	var holder mutex.ID
	holders, sinks := 0, 0
	for _, s := range snaps {
		switch st := s.State(); st {
		case core.StateH:
			holders++
			holder = s.ID
		case core.StateN:
			// fine
		default:
			return fmt.Errorf("check: node %d in state %v at quiescence", s.ID, st)
		}
		if s.Next == mutex.Nil {
			sinks++
		}
		if s.Follow != mutex.Nil {
			return fmt.Errorf("check: node %d has FOLLOW=%d at quiescence", s.ID, s.Follow)
		}
	}
	if holders != 1 {
		return fmt.Errorf("check: %d token holders at quiescence, want 1", holders)
	}
	if sinks != 1 {
		return fmt.Errorf("check: %d sinks at quiescence, want 1", sinks)
	}
	for _, s := range snaps {
		if s.Next == mutex.Nil && s.ID != holder {
			return fmt.Errorf("check: sink %d is not the holder %d", s.ID, holder)
		}
	}
	return SinkPaths(snaps)
}

// BoundedBypass verifies starvation-freedom evidence in a grant log: no
// request should see more than bound later-issued requests granted before
// it. For the DAG algorithm the implicit queue is FIFO-ish at the sink, so
// modest bounds hold; the stress tests use bound = N.
func BoundedBypass(grants []cluster.Grant, bound int) error {
	for i, g := range grants {
		bypass := 0
		for j := 0; j < i; j++ {
			if grants[j].ReqAt > g.ReqAt {
				bypass++
			}
		}
		if bypass > bound {
			return fmt.Errorf("check: grant %d (node %d) bypassed by %d later requests (bound %d)",
				i, g.Node, bypass, bound)
		}
	}
	return nil
}
