package sched

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"
)

func TestTimelineFiresInTimeThenPushOrder(t *testing.T) {
	var tl Timeline[func()]
	var got []int
	note := func(i int) func() { return func() { got = append(got, i) } }
	tl.Push(30, note(4))
	tl.Push(10, note(0))
	tl.Push(20, note(1))
	tl.Push(20, note(2))
	if at, ok := tl.NextAt(); !ok || at != 10 || tl.Len() != 4 {
		t.Fatalf("NextAt = %d, %v with Len %d; want 10, true, 4", at, ok, tl.Len())
	}
	for tl.Len() > 0 {
		at, fn := tl.Pop()
		fn()
		if at == 20 && len(got) == 2 {
			tl.Push(20, note(3)) // due at the instant being fired: behind what is already there
		}
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("fire order %v, want 0..4", got)
		}
	}
	if _, ok := tl.NextAt(); ok || len(got) != 5 {
		t.Fatalf("fired %d of 5, NextAt still reports an event: %v", len(got), ok)
	}
}

// TestTimelinePastSchedulingPanics: with an event pending, a push before
// the last pop panics; an emptied timeline takes pushes at any times, in
// any order.
func TestTimelinePastSchedulingPanics(t *testing.T) {
	var tl Timeline[int]
	tl.Push(10, 0)
	tl.Pop()
	tl.Push(20, 2) // nothing pending: nothing to overtake
	tl.Push(9, 1)
	if at, id := tl.Pop(); at != 9 || id != 1 {
		t.Fatalf("popped %d at %d, want 1 at 9", id, at)
	}
	defer func() {
		if recover() == nil {
			t.Error("scheduling before the last event popped did not panic")
		}
	}()
	tl.Push(8, 3)
}

// model is the reference a Timeline is held to: a container/heap binary
// heap ordered on (time, push order).
type model []pushed

type pushed struct {
	at Time
	id int // push order
}

func (m model) Len() int { return len(m) }
func (m model) Less(i, j int) bool {
	return m[i].at < m[j].at || m[i].at == m[j].at && m[i].id < m[j].id
}
func (m model) Swap(i, j int) { m[i], m[j] = m[j], m[i] }
func (m *model) Push(x any)   { *m = append(*m, x.(pushed)) }
func (m *model) Pop() any {
	old := *m
	e := old[len(old)-1]
	*m = old[:len(old)-1]
	return e
}

// TestTimelineMatchesModel drives a Timeline and the model with the same
// seeded mix of pushes, pops and cancels — few distinct delays, so many
// ties, and spans from one tick to 2^40 so every bucket depth is used —
// and wants the same event at the same time from every pop, and the same
// Len and NextAt after every step.
func TestTimelineMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tl Timeline[int]
	var ref model
	now, ids := Time(0), 0
	for step := 0; step < 200000; step++ {
		switch op := rng.Intn(100); {
		case op == 0:
			k := 2 + rng.Intn(5)
			dead := func(id int) bool { return id%k == 0 }
			tl.Cancel(dead)
			ref = slices.DeleteFunc(ref, func(e pushed) bool { return dead(e.id) })
			heap.Init(&ref)
		case op < 60 || tl.Len() == 0:
			d := Time(rng.Intn(4))
			if rng.Intn(4) == 0 {
				d <<= uint(rng.Intn(40))
			}
			tl.Push(now+d, ids)
			heap.Push(&ref, pushed{at: now + d, id: ids})
			ids++
		default:
			want := heap.Pop(&ref).(pushed)
			at, id := tl.Pop()
			if at != want.at || id != want.id {
				t.Fatalf("step %d: popped event %d at %d, the model's %d at %d", step, id, at, want.id, want.at)
			}
			now = at
		}
		at, ok := tl.NextAt()
		if tl.Len() != ref.Len() || ok != (ref.Len() > 0) || ok && at != ref[0].at {
			t.Fatalf("step %d: Len %d, NextAt %d, %v; the model holds %d", step, tl.Len(), at, ok, ref.Len())
		}
	}
}
