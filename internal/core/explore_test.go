//go:build !race

package core

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"dagmutex/internal/explore"
	"dagmutex/internal/mutex"
	"dagmutex/internal/topology"
)

// The core checker explores a World with no faults: every node requests
// and releases a fixed number of times, and every message in flight may
// be the next to arrive, as long as each link stays FIFO. In every state
// reached:
//   - exactly one token exists: one node holds it or is in its critical
//     section, or one PRIVILEGE is in flight;
//   - every grant's fence is above every earlier grant's;
//   - no REQUEST has walked n hops (NEXT would have a cycle);
//
// and in every state where nothing is left to happen:
//   - every request was served, and no node still requests or holds a
//     FOLLOW;
//   - one node holds the token, idle.
//
// A single goroutine runs it, so -race would find nothing and only slow
// it down: the file is built without -race, like the lane checker's.
type coreCheck struct {
	w      *World
	ids    []mutex.ID
	cycles int   // requests each node makes
	left   []int // by ID: requests the node has yet to make
	fence  uint64
}

type cmkind uint8

const (
	cmDeliver cmkind = iota // the head of link from->to arrives
	cmRequest               // node to requests
	cmRelease               // node to releases
)

type cmove struct {
	kind     cmkind
	from, to mutex.ID
}

func (m cmove) String() string {
	switch m.kind {
	case cmDeliver:
		return fmt.Sprintf("deliver %d->%d", m.from, m.to)
	case cmRequest:
		return fmt.Sprintf("request %d", m.to)
	default:
		return fmt.Sprintf("release %d", m.to)
	}
}

func (s *coreCheck) Moves() []cmove {
	var ms []cmove
	for i, f := range s.w.Pending {
		if !slices.ContainsFunc(s.w.Pending[:i], func(g Flight) bool { return g.From == f.From && g.To == f.To }) {
			ms = append(ms, cmove{cmDeliver, f.From, f.To})
		}
	}
	for _, id := range s.ids {
		switch n := s.w.Nodes[id]; {
		case n.inCS:
			ms = append(ms, cmove{cmRelease, 0, id})
		case s.left[id] > 0 && !n.requesting:
			ms = append(ms, cmove{cmRequest, 0, id})
		}
	}
	return ms
}

func (s *coreCheck) Apply(m cmove) error {
	before := slices.Clone(s.w.Grants)
	var err error
	switch m.kind {
	case cmDeliver:
		_, err = s.w.DeliverLink(m.from, m.to)
	case cmRequest:
		s.left[m.to]--
		err = s.w.Nodes[m.to].Request()
	case cmRelease:
		err = s.w.Nodes[m.to].Release()
	}
	if err != nil {
		return err
	}
	// Only the order within a link is state, as moves take link heads:
	// keep pending link by link, so that one state has one encoding.
	slices.SortStableFunc(s.w.Pending, func(a, b Flight) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	for id, g := range s.w.Grants {
		if g.Count == before[id].Count {
			continue
		}
		if g.Gen <= s.fence {
			return fmt.Errorf("node %d granted fence %d after fence %d", id, g.Gen, s.fence)
		}
		s.fence = g.Gen
	}
	tokens := 0
	for _, id := range s.ids {
		if n := s.w.Nodes[id]; n.holding || n.inCS {
			tokens++
		}
	}
	for _, f := range s.w.Pending {
		switch {
		case f.Msg.Kind == MsgPrivilege:
			tokens++
		case f.Msg.Kind == MsgRequest && int(f.Msg.Hops) >= len(s.ids):
			return fmt.Errorf("a REQUEST of node %d walked %d hops", f.Msg.Origin, f.Msg.Hops)
		}
	}
	if tokens != 1 {
		return fmt.Errorf("%d tokens", tokens)
	}
	return nil
}

func (s *coreCheck) Quiescent() error {
	holders := 0
	for _, id := range s.ids {
		n := s.w.Nodes[id]
		switch {
		case s.w.Grants[id].Count != s.cycles:
			return fmt.Errorf("node %d was granted %d times, want %d", id, s.w.Grants[id].Count, s.cycles)
		case n.requesting || n.inCS || n.follow != mutex.Nil:
			return fmt.Errorf("node %d at rest: %+v", id, n.Snapshot())
		case n.holding:
			holders++
		}
	}
	if holders != 1 {
		return fmt.Errorf("%d idle holders at rest", holders)
	}
	return nil
}

// Encode walks the state: each node's hot fields, how many grants the
// World recorded of it (a grant's generation and hops are written before
// anything reads them), and the messages in flight, in the link order
// Apply keeps them in. It does not walk a node's cold state, so it fails
// on finding one rather than merge two states it cannot tell apart.
func (s *coreCheck) Encode(b []byte) []byte {
	c := &explore.Coder{Buf: b}
	for _, id := range s.ids {
		n := s.w.Nodes[id]
		if n.cold != nil {
			panic(fmt.Sprintf("node %d allocated cold state in a fault-free run", id))
		}
		explore.Num(c, n.next)
		explore.Num(c, n.follow)
		explore.Num(c, n.epoch)
		explore.Num(c, n.gen)
		explore.Num(c, n.followHops)
		explore.Num(c, n.grantHops)
		for _, v := range []bool{n.holding, n.requesting, n.inCS, n.frozen, n.staleCS} {
			explore.Bit(c, v)
		}
		explore.Num(c, s.w.Grants[id].Count)
		explore.Num(c, s.left[id])
	}
	explore.Num(c, s.fence)
	explore.List(c, s.w.Pending, func(f Flight) {
		if f.Boxed != nil {
			panic(fmt.Sprintf("a boxed %s in a fault-free run", f.Boxed.Kind()))
		}
		m := f.Msg
		explore.Num(c, f.From)
		explore.Num(c, f.To)
		explore.Num(c, m.Kind)
		explore.Num(c, m.Generation)
		explore.Num(c, m.From)
		explore.Num(c, m.Origin)
		explore.Num(c, m.Epoch)
		explore.Num(c, m.Hops)
		explore.Bit(c, m.Requesting)
	})
	return c.Buf
}

// Clone copies s and its World, each node with an Env of the copy's.
func (s *coreCheck) Clone() explore.State[cmove] {
	w := &World{Nodes: make([]*Node, len(s.w.Nodes)), Grants: slices.Clone(s.w.Grants),
		Pending: slices.Clone(s.w.Pending), dead: slices.Clone(s.w.dead)}
	for _, id := range s.ids {
		n := *s.w.Nodes[id]
		e := worldEnv{w, id}
		n.env, n.hopEnv, n.msgEnv = e, e, e
		w.Nodes[id] = &n
	}
	c := *s
	c.w, c.left = w, slices.Clone(s.left)
	return &c
}

// coreScope is one bound of the check.
type coreScope struct {
	tree   *topology.Tree
	holder mutex.ID
	cycles int
	opts   []Option
}

func (sc coreScope) start() *coreCheck {
	cfg := mutex.Config{IDs: sc.tree.IDs(), Holder: sc.holder, Parent: sc.tree.ParentsToward(sc.holder)}
	w, err := NewWorld(cfg, sc.opts...)
	if err != nil {
		panic(err)
	}
	s := &coreCheck{w: w, ids: cfg.IDs, cycles: sc.cycles, left: make([]int, len(w.Nodes))}
	for _, id := range cfg.IDs {
		s.left[id] = sc.cycles
	}
	return s
}

func (sc coreScope) search(shortest bool) explore.Result[cmove] {
	return explore.Search[cmove](sc.start(), shortest)
}

// TestCoreCheckerExploresEveryInterleaving runs the check on lines and
// stars of four nodes, with and without path compression: every node
// requests twice, and every order the messages in flight can arrive in,
// link by link FIFO, is explored.
func TestCoreCheckerExploresEveryInterleaving(t *testing.T) {
	for _, sc := range []struct {
		name string
		coreScope
	}{
		{"line4", coreScope{tree: topology.Line(4), holder: 1, cycles: 2}},
		{"line4+compress", coreScope{tree: topology.Line(4), holder: 1, cycles: 2, opts: []Option{WithPathCompression()}}},
		{"star4", coreScope{tree: topology.Star(4), holder: 1, cycles: 2}},
		{"star4+compress", coreScope{tree: topology.Star(4), holder: 1, cycles: 2, opts: []Option{WithPathCompression()}}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			res := sc.search(false)
			if res.Err != nil {
				res = sc.search(true)
				t.Fatalf("%v, after %v", res.Err, res.Trail)
			}
			t.Logf("%d states, %d transitions, depth %d, in %v", res.States, res.Transitions, res.Depth, res.Wall)
		})
	}
}
