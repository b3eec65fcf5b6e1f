package sched

import (
	"math/rand"
	"sort"
	"testing"
)

func TestSchedulerFiresInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	if n := s.Run(); n != 3 {
		t.Fatalf("Run fired %d events, want 3", n)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Fatalf("Now = %d, want 30", s.Now())
	}
}

func TestSchedulerTieBreaksByScheduleOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of schedule order: %v", got)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 5 {
			s.After(7, rec)
		}
	}
	s.After(1, rec)
	s.Run()
	if depth != 5 {
		t.Fatalf("nested chain ran %d times, want 5", depth)
	}
	if s.Now() != 1+4*7 {
		t.Fatalf("Now = %d, want %d", s.Now(), 1+4*7)
	}
}

func TestSchedulerRunUntilAdvancesClock(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.At(50, func() { fired = true })
	s.RunUntil(40)
	if fired {
		t.Fatal("event at t=50 fired during RunUntil(40)")
	}
	if s.Now() != 40 {
		t.Fatalf("Now = %d, want 40", s.Now())
	}
	s.RunUntil(60)
	if !fired {
		t.Fatal("event at t=50 did not fire by RunUntil(60)")
	}
	if s.Now() != 60 {
		t.Fatalf("Now = %d, want 60", s.Now())
	}
}

func TestSchedulerRunLimited(t *testing.T) {
	s := NewScheduler()
	// A self-perpetuating event chain: would never drain.
	var loop func()
	loop = func() { s.After(1, loop) }
	s.After(0, loop)
	fired, drained := s.RunLimited(100)
	if drained {
		t.Fatal("self-perpetuating chain reported drained")
	}
	if fired != 100 {
		t.Fatalf("fired = %d, want 100", fired)
	}
}

func TestSchedulerPastSchedulingPanics(t *testing.T) {
	s := NewScheduler()
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestSchedulerPendingAndProcessed(t *testing.T) {
	s := NewScheduler()
	s.At(1, func() {})
	s.At(2, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	s.Step()
	if s.Pending() != 1 || s.Processed() != 1 {
		t.Fatalf("after one step: pending=%d processed=%d", s.Pending(), s.Processed())
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
	s.Run()
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
	s.Run()
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired as %+v, want %+v", i, got[i], want[i])
		}
	}
}
