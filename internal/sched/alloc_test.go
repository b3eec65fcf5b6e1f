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
	now := Time(0)
	round := func() {
		var hs [64]Event
		for i := range hs {
			hs[i] = s.AtEvent(now+Time(1+i%7), fn)
		}
		for i := 0; i < len(hs); i += 2 {
			s.Cancel(hs[i])
		}
		for {
			at, _ := s.NextAt()
			fire, ok := s.PopDue(1 << 40)
			if !ok {
				break
			}
			now = at
			fire()
		}
	}
	round()
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Errorf("push/cancel/pop round = %.2f allocs, want 0", avg)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after the rounds drained", s.Pending())
	}
}

// TestAllocBudgetTimelinePushPop: once its buckets have reached their
// high-water mark, the timeline arms and fires without allocating.
func TestAllocBudgetTimelinePushPop(t *testing.T) {
	var tl Timeline
	fn := func() {}
	now := Time(0)
	round := func() {
		for i := 0; i < 64; i++ {
			tl.Push(now+Time(1+i%7)<<uint(i%20), 0, fn)
		}
		for tl.Len() > 0 {
			var fire func()
			now, fire = tl.Pop()
			fire()
		}
	}
	for i := 0; i < 64; i++ { // visit every bucket depth the rounds will
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Errorf("push/pop round = %.2f allocs, want 0", avg)
	}
}
