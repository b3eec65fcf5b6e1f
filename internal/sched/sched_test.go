package sched

import (
	"math/rand"
	"sort"
	"testing"
)

// never is later than any event: PopDue(never) pops whatever is earliest.
const never = Time(1)<<62 - 1

// run pops and fires events until the queue is empty, the way vclock
// drives it, and returns how many fired and the time of the last.
func run(s *Scheduler) (fired int, now Time) {
	for {
		at, _ := s.NextAt()
		fn, ok := s.PopDue(never)
		if !ok {
			return fired, now
		}
		now = at
		fn()
		fired++
	}
}

func TestSchedulerFiresInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.AtEvent(30, func() { got = append(got, 3) })
	s.AtEvent(10, func() { got = append(got, 1) })
	s.AtEvent(20, func() { got = append(got, 2) })
	n, now := run(s)
	if n != 3 {
		t.Fatalf("fired %d events, want 3", n)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
	if now != 30 {
		t.Fatalf("last event popped at %d, want 30", now)
	}
}

func TestSchedulerTieBreaksByScheduleOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.AtEvent(5, func() { got = append(got, i) })
	}
	run(s)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of schedule order: %v", got)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	depth := 0
	at := Time(1)
	var rec func()
	rec = func() {
		depth++
		if depth < 5 {
			at += 7
			s.AtEvent(at, rec)
		}
	}
	s.AtEvent(at, rec)
	_, now := run(s)
	if depth != 5 {
		t.Fatalf("nested chain ran %d times, want 5", depth)
	}
	if now != 1+4*7 {
		t.Fatalf("last event popped at %d, want %d", now, 1+4*7)
	}
}

func TestSchedulerPopDueStopsAtBound(t *testing.T) {
	s := NewScheduler()
	s.AtEvent(50, func() {})
	if _, ok := s.PopDue(40); ok {
		t.Fatal("event at t=50 popped by PopDue(40)")
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d after a PopDue short of the event, want 1", s.Pending())
	}
	if _, ok := s.PopDue(60); !ok || s.Pending() != 0 {
		t.Fatalf("PopDue(60) = %v with %d pending; want the event at 50", ok, s.Pending())
	}
}

func TestSchedulerPastSchedulingPanics(t *testing.T) {
	s := NewScheduler()
	s.AtEvent(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.AtEvent(5, func() {})
	})
	run(s)
}

func TestSchedulerPendingAndSeq(t *testing.T) {
	s := NewScheduler()
	s.AtEvent(2, func() {})
	s.AtEvent(1, func() {})
	if s.Pending() != 2 || s.Seq() != 2 {
		t.Fatalf("Pending = %d, Seq = %d; want 2, 2", s.Pending(), s.Seq())
	}
	if seq := s.NextSeq(); seq != 2 {
		t.Fatalf("NextSeq = %d, want the earlier event's: 2", seq)
	}
	s.PopDue(never)
	if s.Pending() != 1 || s.Seq() != 2 || s.NextSeq() != 1 {
		t.Fatalf("after one pop: pending=%d seq=%d next=%d", s.Pending(), s.Seq(), s.NextSeq())
	}
}

func TestCancelRemovesAtOnce(t *testing.T) {
	s := NewScheduler()
	fired := 0
	a := s.AtEvent(10, func() { fired += 1 })
	b := s.AtEvent(20, func() { fired += 10 })
	if !s.Cancel(a) {
		t.Fatal("Cancel of a pending event reported false")
	}
	if s.Cancel(a) {
		t.Fatal("second Cancel reported true")
	}
	if s.Cancel(Event{}) {
		t.Fatal("Cancel of the zero Event reported true")
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d after cancelling one of two, want 1", s.Pending())
	}
	if at, ok := s.NextAt(); !ok || at != 20 {
		t.Fatalf("NextAt = %d, %v; want 20, true", at, ok)
	}
	run(s)
	if fired != 10 {
		t.Fatalf("fired = %d, want only the surviving event (10)", fired)
	}
	if s.Cancel(b) {
		t.Fatal("Cancel of a fired event reported true")
	}
	// The fired event's slot is reused; the stale handle must not reach
	// its new tenant.
	c := s.AtEvent(30, func() { fired += 100 })
	if s.Cancel(b) || s.Pending() != 1 {
		t.Fatal("stale handle cancelled the slot's next event")
	}
	if !s.Cancel(c) || s.Pending() != 0 {
		t.Fatal("live handle on a reused slot did not cancel")
	}
}

// TestCancelKeepsHeapOrder removes events from the middle of a large
// heap and checks the survivors against a straightforward sort.
func TestCancelKeepsHeapOrder(t *testing.T) {
	s := NewScheduler()
	rng := rand.New(rand.NewSource(1))
	type rec struct {
		at  Time
		seq int
	}
	var got, want []rec
	var handles []Event
	var recs []rec
	for i := 0; i < 5000; i++ {
		r := rec{at: Time(rng.Intn(500)), seq: i}
		recs = append(recs, r)
		handles = append(handles, s.AtEvent(r.at, func() { got = append(got, r) }))
	}
	for i, h := range handles {
		if rng.Intn(3) == 0 {
			if !s.Cancel(h) {
				t.Fatalf("Cancel(%d) reported false", i)
			}
		} else {
			want = append(want, recs[i])
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	if s.Pending() != len(want) {
		t.Fatalf("Pending = %d, want %d", s.Pending(), len(want))
	}
	run(s)
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired as %+v, want %+v", i, got[i], want[i])
		}
	}
}
