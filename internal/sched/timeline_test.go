package sched

import (
	"math/rand"
	"testing"
)

func TestTimelineFiresInTimeThenPushOrder(t *testing.T) {
	var tl Timeline
	var got []int
	note := func(i int) func() { return func() { got = append(got, i) } }
	tl.Push(30, 0, note(4))
	tl.Push(10, 0, note(0))
	tl.Push(20, 0, note(1))
	tl.Push(20, 0, note(2))
	if at, ok := tl.NextAt(); !ok || at != 10 || tl.Len() != 4 {
		t.Fatalf("NextAt = %d, %v with Len %d; want 10, true, 4", at, ok, tl.Len())
	}
	for tl.Len() > 0 {
		at, fn := tl.Pop()
		fn()
		if at == 20 && len(got) == 2 {
			tl.Push(20, 0, note(3)) // due at the instant being fired: behind what is already there
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

func TestTimelinePastSchedulingPanics(t *testing.T) {
	var tl Timeline
	tl.Push(10, 0, func() {})
	tl.Pop()
	defer func() {
		if recover() == nil {
			t.Error("scheduling before the last event popped did not panic")
		}
	}()
	tl.Push(9, 0, func() {})
}

// TestTimelineMatchesScheduler drives a Timeline and a Scheduler with the
// same seeded mix of pushes and pops — few distinct delays, so many ties,
// and spans from one tick to 2^40 so every bucket depth is used — and
// wants the same event, at the same time, from every pop, and the pushed
// seq back from NextSeq.
func TestTimelineMatchesScheduler(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tl Timeline
	ref := NewScheduler()
	var fromTL, fromRef int
	now, pushed := Time(0), 0
	for step := 0; step < 200000; step++ {
		if tl.Len() == 0 || rng.Intn(5) < 3 {
			d := Time(rng.Intn(4))
			if rng.Intn(4) == 0 {
				d <<= uint(rng.Intn(40))
			}
			id := pushed
			pushed++
			tl.Push(now+d, uint64(id), func() { fromTL = id })
			ref.AtEvent(now+d, func() { fromRef = id })
			continue
		}
		wantAt, ok := ref.NextAt()
		if gotAt, gotOK := tl.NextAt(); !ok || !gotOK || gotAt != wantAt || tl.Len() != ref.Pending() {
			t.Fatalf("step %d: NextAt = %d, %v with Len %d; the reference has %d, %v with %d pending",
				step, gotAt, gotOK, tl.Len(), wantAt, ok, ref.Pending())
		}
		seq := tl.NextSeq()
		at, fn := tl.Pop()
		fn()
		refFn, _ := ref.PopDue(never)
		refFn()
		if at != wantAt || fromTL != fromRef || seq != uint64(fromRef) {
			t.Fatalf("step %d: popped event %d (seq %d) at %d, the reference event %d at %d",
				step, fromTL, seq, at, fromRef, wantAt)
		}
		now = at
	}
}
