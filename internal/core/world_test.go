package core

import (
	"testing"

	"dagmutex/internal/mutex"
	"dagmutex/internal/topology"
)

// world is a World under a test: each step fails the test instead of
// returning an error.
type world struct {
	*World
	t *testing.T
}

// newWorld builds one node per tree vertex with the token at holder,
// NEXT pointers oriented toward it (the Figure 5 INIT steady state).
func newWorld(t *testing.T, tree *topology.Tree, holder mutex.ID, opts ...Option) *world {
	t.Helper()
	w, err := NewWorld(mutex.Config{IDs: tree.IDs(), Holder: holder, Parent: tree.ParentsToward(holder)}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return &world{w, t}
}

// request has node id issue a CS request.
func (w *world) request(id mutex.ID) {
	w.t.Helper()
	if err := w.Nodes[id].Request(); err != nil {
		w.t.Fatalf("Request(%d): %v", id, err)
	}
}

// release has node id leave its CS.
func (w *world) release(id mutex.ID) {
	w.t.Helper()
	if err := w.Nodes[id].Release(); err != nil {
		w.t.Fatalf("Release(%d): %v", id, err)
	}
}

func (w *world) deliverTo(to mutex.ID) Flight {
	w.t.Helper()
	f, err := w.DeliverTo(to)
	if err != nil {
		w.t.Fatal(err)
	}
	return f
}

func (w *world) drain() {
	w.t.Helper()
	if err := w.Drain(); err != nil {
		w.t.Fatal(err)
	}
}

func (w *world) crash(id mutex.ID) {
	w.t.Helper()
	if err := w.Crash(id); err != nil {
		w.t.Fatal(err)
	}
}

// suspect reports down at each node of at, or at every live node.
func (w *world) suspect(down mutex.ID, at ...mutex.ID) {
	w.t.Helper()
	if err := w.Suspect(down, at...); err != nil {
		w.t.Fatal(err)
	}
}

// expect asserts one node's full variable set, thesis-table style.
func (w *world) expect(id mutex.ID, holding bool, next, follow mutex.ID) {
	w.t.Helper()
	s := w.Nodes[id].Snapshot()
	if s.Holding != holding || s.Next != next || s.Follow != follow {
		w.t.Fatalf("node %d: HOLDING=%v NEXT=%d FOLLOW=%d, want HOLDING=%v NEXT=%d FOLLOW=%d",
			id, s.Holding, s.Next, s.Follow, holding, next, follow)
	}
}

// expectRow asserts a whole thesis table row: HOLDING, NEXT and FOLLOW for
// nodes 1..n, exactly as Figures 6a-6k print them.
func (w *world) expectRow(holding []bool, next, follow []mutex.ID) {
	w.t.Helper()
	for i := range holding {
		w.expect(mutex.ID(i+1), holding[i], next[i], follow[i])
	}
}

// TestWorldRejectsANonMember drives every World entry that takes an ID
// with IDs that name no node — one past the last, zero, and a gap in
// the ID list — and wants an error back, never a panic.
func TestWorldRejectsANonMember(t *testing.T) {
	w, err := NewWorld(mutex.Config{IDs: []mutex.ID{1, 3}, Holder: 1, Parent: map[mutex.ID]mutex.ID{3: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []mutex.ID{0, 2, 4, 99} {
		w.Pending = append(w.Pending, Flight{From: 1, To: id, Msg: Msg{Kind: MsgRequest, From: 1, Origin: 1}})
		if err := w.Drain(); err == nil {
			t.Errorf("Drain to node %d: no error", id)
		}
		w.Pending = append(w.Pending, Flight{From: id, To: 3, Msg: Msg{Kind: MsgRequest, From: id, Origin: id}})
		if err := w.Drain(); err == nil {
			t.Errorf("Drain from node %d: no error", id)
		}
		w.Pending = nil
		if err := w.Crash(id); err == nil {
			t.Errorf("Crash(%d): no error", id)
		}
		if w.Crashed(id) {
			t.Errorf("Crashed(%d) = true", id)
		}
		if err := w.Suspect(1, id); err == nil {
			t.Errorf("Suspect(1, %d): no error", id)
		}
	}
}
