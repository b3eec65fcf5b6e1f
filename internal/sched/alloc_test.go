//go:build !race

package sched

import "testing"

// TestAllocBudgetSchedulerPushPopCancel: once the heap and slot slices
// have reached their high-water mark, scheduling, cancelling and firing
// events allocate nothing — events live by value in the heap and the
// handle is a value.
func TestAllocBudgetSchedulerPushPopCancel(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	round := func() {
		var hs [64]Event
		for i := range hs {
			hs[i] = s.AfterEvent(Time(1+i%7), fn)
		}
		for i := 0; i < len(hs); i += 2 {
			s.Cancel(hs[i])
		}
		s.Run()
	}
	round()
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Errorf("push/cancel/pop round = %.2f allocs, want 0", avg)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after the rounds drained", s.Pending())
	}
}
