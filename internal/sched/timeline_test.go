package sched

import (
	"container/heap"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// TestSlotEntryIsSixteenBytes: the virtual clock queues uint32 slot
// numbers, so every entry it files and moves is 16 bytes, a time and a
// slot, with no pointer in it for the garbage collector to scan.
func TestSlotEntryIsSixteenBytes(t *testing.T) {
	var e entry[uint32]
	if size := unsafe.Sizeof(e); size != 16 {
		t.Errorf("an entry of a uint32 is %d bytes, want 16", size)
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(e)) {
		switch k := f.Type.Kind(); k {
		case reflect.Int64, reflect.Uint32:
		default:
			t.Errorf("entry field %s is a %v, want a time or a slot number", f.Name, k)
		}
	}
}

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
// seeded mix of pushes, pops, pops if due by a random target, cancels and
// drains — few distinct delays, so many ties, and spans from one tick to
// 2^40 so every bucket depth is used — and wants the same event at the
// same time from every pop, and the same Len and NextAt after every step.
// A drain empties the timeline and the script restarts from time zero, so
// every path that empties a bucket is followed by pushes that file into
// it again: a headroom one of them left stale shows in NextAt or PopDue.
func TestTimelineMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tl Timeline[int]
	var ref model
	now, ids := Time(0), 0
	spread := func() Time {
		d := Time(rng.Intn(4))
		if rng.Intn(4) == 0 {
			d <<= uint(rng.Intn(40))
		}
		return d
	}
	pop := func(step int) {
		want := heap.Pop(&ref).(pushed)
		at, id := tl.Pop()
		if at != want.at || id != want.id {
			t.Fatalf("step %d: popped event %d at %d, the model's %d at %d", step, id, at, want.id, want.at)
		}
		now = at
	}
	drains := 0
	for step := 0; step < 200000; step++ {
		switch op := rng.Intn(1000); {
		case op < 10:
			k := 2 + rng.Intn(5)
			dead := func(id int) bool { return id%k == 0 }
			tl.Cancel(dead)
			ref = slices.DeleteFunc(ref, func(e pushed) bool { return dead(e.id) })
			heap.Init(&ref)
		case op < 12:
			for ref.Len() > 0 {
				pop(step)
			}
			now = 0
			drains++
		case op < 600 || tl.Len() == 0:
			at := now + spread()
			tl.Push(at, ids)
			heap.Push(&ref, pushed{at: at, id: ids})
			ids++
		case op < 800:
			target := now - 1 + spread()
			at, id, ok := tl.PopDue(target)
			if due := ref[0].at <= target; ok != due {
				t.Fatalf("step %d: PopDue(%d) = %v, the model's head is at %d", step, target, ok, ref[0].at)
			}
			if !ok {
				break
			}
			want := heap.Pop(&ref).(pushed)
			if at != want.at || id != want.id {
				t.Fatalf("step %d: PopDue(%d) popped event %d at %d, the model's %d at %d", step, target, id, at, want.id, want.at)
			}
			now = at
		default:
			pop(step)
		}
		at, ok := tl.NextAt()
		if tl.Len() != ref.Len() || ok != (ref.Len() > 0) || ok && at != ref[0].at {
			t.Fatalf("step %d: Len %d, NextAt %d, %v; the model holds %d", step, tl.Len(), at, ok, ref.Len())
		}
	}
	if drains < 100 {
		t.Fatalf("only %d drains: the script is not restarting the timeline", drains)
	}

	// The pending set swings: filled to 10 000, drained to 3, filled
	// again and drained, so the arrays that held the peak are given back
	// and borrowed again while events are pending.
	fill := func(to int) {
		for ref.Len() < to {
			at := now + spread()
			tl.Push(at, ids)
			heap.Push(&ref, pushed{at: at, id: ids})
			ids++
		}
	}
	for step, to := range []int{10_000, 3, 10_000, 0} {
		fill(to)
		for ref.Len() > to {
			pop(step)
		}
		if tl.Len() != to {
			t.Fatalf("swing %d: Len %d, want %d", step, tl.Len(), to)
		}
	}
}

// capacity is the entries the timeline's arrays have room for: the
// buckets' own, those borrowed and the idle ones in the pool.
func (t *Timeline[E]) capacity() int {
	n := 0
	for i, b := range t.buckets {
		n += cap(t.own[i])
		if cap(b) > ownCap {
			n += cap(b)
		}
	}
	for _, b := range t.pool {
		n += cap(b)
	}
	return n
}
