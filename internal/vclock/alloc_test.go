//go:build !race

package vclock

import (
	"testing"
	"time"
)

// TestAllocBudgetVirtualTimerReset: re-arming an AfterFunc timer and
// firing it allocates nothing — the timer's callback is bound once and
// a queued event is a value.
func TestAllocBudgetVirtualTimerReset(t *testing.T) {
	v := NewVirtual()
	fired := 0
	tm := v.AfterFunc(time.Millisecond, func() { fired++ })
	v.Advance(time.Millisecond)
	round := func() {
		tm.Reset(time.Millisecond) // armed, then moved: a cancel and a push
		tm.Reset(2 * time.Millisecond)
		v.Advance(2 * time.Millisecond)
	}
	round()
	if avg := testing.AllocsPerRun(1000, round); avg != 0 {
		t.Errorf("Reset+fire = %.2f allocs, want 0", avg)
	}
	if fired != 1003 { // the first arming, the warm-up round, AllocsPerRun's own warm-up, 1000 runs
		t.Fatalf("fired = %d, want 1003", fired)
	}
}

// TestAllocBudgetVirtualArm: arming an event on the owner's timeline and
// firing it allocates nothing once the timeline's buckets have grown.
func TestAllocBudgetVirtualArm(t *testing.T) {
	v := NewVirtual()
	fired := 0
	fn := func() { fired++ }
	round := func() {
		for i := 0; i < 64; i++ {
			v.Arm(time.Duration(1+i%7)<<uint(i%20), fn)
		}
		v.Advance(8 << 20)
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Errorf("64 x Arm+fire = %.2f allocs, want 0", avg)
	}
	if fired != 64*(64+1+200) {
		t.Fatalf("fired = %d, want %d", fired, 64*(64+1+200))
	}
}
