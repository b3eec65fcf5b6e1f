package sched

import (
	"math/rand"
	"sort"
	"testing"
)

// drain pops and fires a timeline of callbacks until it is empty, and
// returns how many fired and the time of the last.
func drain(tl *Timeline[func()]) (fired int, now Time) {
	for tl.Len() > 0 {
		var fn func()
		now, fn = tl.Pop()
		fn()
		fired++
	}
	return fired, now
}

func TestSchedulerFiresInTimeOrder(t *testing.T) {
	var tl Timeline[func()]
	var got []int
	tl.Push(30, func() { got = append(got, 3) })
	tl.Push(10, func() { got = append(got, 1) })
	tl.Push(20, func() { got = append(got, 2) })
	if n, now := drain(&tl); n != 3 || now != 30 {
		t.Fatalf("fired %d events, the last at %d; want 3, 30", n, now)
	}
	for i, want := range []int{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("fire order %v, want [1 2 3]", got)
		}
	}
}

func TestSchedulerTieBreaksByScheduleOrder(t *testing.T) {
	var tl Timeline[func()]
	var got []int
	for i := 0; i < 10; i++ {
		tl.Push(5, func() { got = append(got, i) })
	}
	drain(&tl)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of schedule order: %v", got)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	var tl Timeline[func()]
	depth := 0
	at := Time(1)
	var rec func()
	rec = func() {
		depth++
		if depth < 5 {
			at += 7
			tl.Push(at, rec)
		}
	}
	tl.Push(at, rec)
	_, now := drain(&tl)
	if depth != 5 {
		t.Fatalf("nested chain ran %d times, want 5", depth)
	}
	if now != 1+4*7 {
		t.Fatalf("last event popped at %d, want %d", now, 1+4*7)
	}
}

func TestSchedulerPastSchedulingPanics(t *testing.T) {
	var tl Timeline[func()]
	tl.Push(20, func() {})
	tl.Push(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		tl.Push(5, func() {})
	})
	drain(&tl)
}

// TestCancelRemovesAtOnce: Cancel takes what it withdraws out of Len and
// NextAt at once, from any bucket, bucket 0 read halfway included, and
// leaves the rest to fire.
func TestCancelRemovesAtOnce(t *testing.T) {
	var tl Timeline[int]
	for i, at := range []Time{10, 20, 10, 30} {
		tl.Push(at, i)
	}
	tl.Cancel(func(i int) bool { return i == 0 || i == 2 }) // both events at 10
	if at, ok := tl.NextAt(); !ok || at != 20 || tl.Len() != 2 {
		t.Fatalf("NextAt = %d, %v with Len %d; want 20, true, 2", at, ok, tl.Len())
	}
	if _, i := tl.Pop(); i != 1 {
		t.Fatalf("popped %d, want the surviving event 1", i)
	}
	for i := 10; i < 13; i++ {
		tl.Push(40, i)
	}
	tl.Pop() // event 3, at 30
	tl.Pop() // event 10, at 40: bucket 0 is read from its middle now
	tl.Cancel(func(i int) bool { return i == 11 })
	if at, i := tl.Pop(); at != 40 || i != 12 || tl.Len() != 0 {
		t.Fatalf("popped %d at %d with %d left; want 12 at 40 and none", i, at, tl.Len())
	}
	tl.Push(50, 13)
	tl.Cancel(func(int) bool { return true })
	if _, ok := tl.NextAt(); ok || tl.Len() != 0 {
		t.Fatal("a timeline cancelled to empty still reports an event")
	}
}

// TestCancelKeepsHeapOrder cancels a third of a large timeline's events
// and checks the survivors against a straightforward sort.
func TestCancelKeepsHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type rec struct {
		at  Time
		seq int
	}
	var tl Timeline[rec]
	var want []rec
	cancelled := make(map[int]bool)
	for i := 0; i < 5000; i++ {
		r := rec{at: Time(rng.Intn(500)), seq: i}
		tl.Push(r.at, r)
		if rng.Intn(3) == 0 {
			cancelled[i] = true
		} else {
			want = append(want, r)
		}
	}
	tl.Cancel(func(r rec) bool { return cancelled[r.seq] })
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	if tl.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", tl.Len(), len(want))
	}
	for i := range want {
		if at, r := tl.Pop(); r != want[i] || at != r.at {
			t.Fatalf("event %d popped as %+v at %d, want %+v", i, r, at, want[i])
		}
	}
}
