//go:build !race

package vclock

import (
	"math/rand"
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

// TestAllocBudgetVirtualFillDrain: the slot table and the queue follow the
// pending set without trading a shrink for a regrowth. A loop that fills
// the clock with 1000 events and drains it allocates nothing once warm,
// and neither does a steady set of 200 self-re-arming events with 1 s
// think times, whose queue carries a high bit of the time every
// simulated second or so.
func TestAllocBudgetVirtualFillDrain(t *testing.T) {
	v := NewVirtual()
	fn := func() {}
	fill := func() {
		for i := range 1000 {
			v.Arm(time.Duration(i)*time.Millisecond, fn)
		}
		v.Advance(time.Second)
	}
	for range 8 {
		fill()
	}
	if avg := testing.AllocsPerRun(50, fill); avg != 0 {
		t.Errorf("filling with 1000 events and draining = %.2f allocs, want 0", avg)
	}

	rng := rand.New(rand.NewSource(1))
	think := make([]time.Duration, 4096)
	for i := range think {
		think[i] = time.Duration(rng.ExpFloat64() * float64(time.Second))
	}
	k := 0
	var cycle func()
	cycle = func() {
		k++
		v.Arm(think[k%len(think)], cycle)
	}
	for range 200 {
		cycle()
	}
	second := func() { v.Advance(time.Second) }
	for range 64 {
		second()
	}
	if avg := testing.AllocsPerRun(200, second); avg != 0 {
		t.Errorf("a simulated second of 200 cycling events = %.2f allocs, want 0", avg)
	}
}
