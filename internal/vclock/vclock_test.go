package vclock

import (
	"sync/atomic"
	"testing"
	"time"

	"dagmutex/internal/sched"
)

// The clock queues slot numbers: sched's TestSlotEntryIsSixteenBytes holds
// each entry of such a queue to 16 bytes with no pointer in them.
var _ = func(v *Virtual) *sched.Timeline[uint32] { return &v.queue }

func TestVirtualNowAdvances(t *testing.T) {
	v := NewVirtual()
	t0 := v.Now()
	v.Advance(90 * time.Minute)
	if got := v.Now().Sub(t0); got != 90*time.Minute {
		t.Fatalf("advanced %v, want 90m", got)
	}
	if v.Since(t0) != 90*time.Minute {
		t.Fatalf("Since = %v", v.Since(t0))
	}
	if v.Until(t0.Add(2*time.Hour)) != 30*time.Minute {
		t.Fatalf("Until = %v", v.Until(t0.Add(2*time.Hour)))
	}
}

func TestVirtualTimerFiresAtDeadline(t *testing.T) {
	v := NewVirtual()
	var at []time.Duration
	v.AfterFunc(50*time.Millisecond, func() { at = append(at, v.Elapsed()) })
	v.Advance(49 * time.Millisecond)
	if len(at) != 0 {
		t.Fatal("timer fired early")
	}
	v.Advance(time.Millisecond)
	if len(at) != 1 || at[0] != 50*time.Millisecond {
		t.Fatalf("fired at %v, want once at its deadline, 50ms", at)
	}
}

func TestVirtualTimerStopAndReset(t *testing.T) {
	v := NewVirtual()
	fired := 0
	tm := v.AfterFunc(10*time.Millisecond, func() { fired++ })
	if !tm.Stop() {
		t.Fatal("Stop on an armed timer reported false")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
	v.Advance(20 * time.Millisecond)
	if fired != 0 {
		t.Fatal("stopped timer fired")
	}
	if tm.Reset(5 * time.Millisecond) {
		t.Fatal("Reset of a stopped timer reported armed")
	}
	if !tm.Reset(5 * time.Millisecond) {
		t.Fatal("Reset of an armed timer reported unarmed")
	}
	v.Advance(5 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("reset timer fired %d times, want once", fired)
	}
	if tm.Stop() || tm.Reset(time.Millisecond) {
		t.Fatal("a fired timer reported armed")
	}
}

func TestVirtualAfterFuncChain(t *testing.T) {
	// The periodic-loop idiom every subsystem uses: an AfterFunc that
	// re-arms itself. 1000 virtual seconds of 1s ticks in microseconds.
	v := NewVirtual()
	var ticks int
	var tm Timer
	tm = v.AfterFunc(time.Second, func() {
		ticks++
		tm.Reset(time.Second)
	})
	v.Advance(1000 * time.Second)
	if ticks != 1000 {
		t.Fatalf("ticks = %d, want 1000", ticks)
	}
}

// TestEveryStopsWhileOwnerFiresItsTicks is the race-detector case for
// Every, the contract Sweeper.Stop and Detector.Stop rely on:
// another goroutine stops the chain while the owner is firing its ticks
// — on even rounds while a tick's fn is under way, on odd ones wherever
// it lands. No tick starts after stop has returned, the one under way
// does not re-arm, one more Advance fires nothing, and nothing is left
// pending.
func TestEveryStopsWhileOwnerFiresItsTicks(t *testing.T) {
	for round := 1; round <= 20; round++ {
		v := NewVirtual()
		var ticks, late atomic.Int64
		var returned atomic.Bool
		started, stopped := make(chan struct{}), make(chan struct{})
		stop := Every(v, time.Millisecond, func() {
			if returned.Load() {
				late.Add(1)
			}
			if ticks.Add(1) == int64(round) {
				close(started)
				if round%2 == 0 {
					<-stopped
				}
			}
		})
		go func() {
			<-started
			stop()
			returned.Store(true)
			close(stopped)
		}()
		for done := false; !done; {
			v.Advance(100 * time.Millisecond)
			select {
			case <-stopped:
				done = true
			default:
			}
		}
		// On odd rounds the tick that had passed its check as stop ran may
		// call fn after stop returned; no other may.
		if n := late.Load(); n > 1 {
			t.Fatalf("round %d: %d ticks began after stop returned", round, n)
		}
		before := ticks.Load()
		v.Advance(time.Second)
		if n := ticks.Load() - before; n != 0 {
			t.Fatalf("round %d: %d ticks on the Advance after stop", round, n)
		}
		if n := v.Pending(); n != 0 {
			t.Fatalf("round %d: %d events pending after stop", round, n)
		}
	}
}

// TestEveryTicksUntilStopped: Every runs fn once per interval; a stop from
// inside fn ends the chain without another tick, and stop may be called
// again.
func TestEveryTicksUntilStopped(t *testing.T) {
	v := NewVirtual()
	ticks := 0
	var stop func()
	stop = Every(v, time.Second, func() {
		if ticks++; ticks == 5 {
			stop()
		}
	})
	v.Advance(10 * time.Second)
	if ticks != 5 || v.Pending() != 0 || v.Elapsed() != 10*time.Second {
		t.Fatalf("ticks = %d with %d pending, want 5 and 0", ticks, v.Pending())
	}
	stop()
}

func TestVirtualSameInstantOrder(t *testing.T) {
	// Two events due at the same instant fire in arming order — the
	// determinism the trace-diff test leans on.
	v := NewVirtual()
	var order []int
	v.AfterFunc(time.Second, func() { order = append(order, 1) })
	v.AfterFunc(time.Second, func() { order = append(order, 2) })
	v.AfterFunc(500*time.Millisecond, func() { order = append(order, 0) })
	v.Advance(time.Second)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order = %v, want [0 1 2]", order)
	}
}

func TestVirtualRunReportsFired(t *testing.T) {
	v := NewVirtual()
	for i := 1; i <= 10; i++ {
		v.AfterFunc(time.Duration(i)*time.Second, func() {})
	}
	if fired := v.Run(5 * time.Second); fired != 5 {
		t.Fatalf("fired = %d, want 5", fired)
	}
	if v.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", v.Pending())
	}
	// Like Advance, Run leaves the clock at the horizon, not at the last
	// event it fired: the queue drains at 10s, the clock ends at 25s.
	if fired := v.Run(20 * time.Second); fired != 5 {
		t.Fatalf("fired = %d on the second run, want 5", fired)
	}
	if v.Pending() != 0 || v.Elapsed() != 25*time.Second {
		t.Fatalf("after draining: pending = %d, elapsed = %v; want 0, 25s", v.Pending(), v.Elapsed())
	}
}

// TestResetDoesNotGrowHeap: a timer re-armed in a loop (every lease
// renewal on a virtual clock) leaves a bounded number of entries queued,
// withdrawn ones included, not one per Reset — whether the owner collects
// the inbox between Resets (the first half: the queue's sweep bounds it)
// or not (the second half: the inbox's) — and Pending stays exact, and
// the timer fires at the last Reset's deadline. Every slot in use holds a queued
// entry: a withdrawn event's slot is freed when the sweep drops it or the
// pop skips it (the stopped timer at the end), so the slot table never
// grows past its first step.
func TestResetDoesNotGrowHeap(t *testing.T) {
	v := NewVirtual()
	fired := 0
	tm := v.AfterFunc(time.Hour, func() { fired++ })
	stored := func() int {
		if used := slotsInUse(v); used != v.queue.Len() || len(v.slots) > slotStep {
			t.Fatalf("%d slots of %d in use for %d queued entries", used, len(v.slots), v.queue.Len())
		}
		v.mu.Lock()
		defer v.mu.Unlock()
		return len(v.inbox) + v.queue.Len()
	}
	const resets = 100000
	for i := 1; i <= resets; i++ {
		if !tm.Reset(time.Hour + time.Duration(i)) {
			t.Fatalf("Reset %d of an armed timer reported unarmed", i)
		}
		if i <= resets/2 && i%10 == 0 && v.Pending() != 1 {
			t.Fatalf("pending = %d after %d Resets of one timer, want 1", v.Pending(), i)
		}
		if n := stored(); n > 100 {
			t.Fatalf("%d entries queued after %d Resets of one timer", n, i)
		}
	}
	if v.Pending() != 1 {
		t.Fatalf("pending = %d after 1e5 Resets of one timer, want 1", v.Pending())
	}
	skipped := v.AfterFunc(time.Minute, func() { fired++ })
	v.Pending() // queued, where only the pop finds it withdrawn
	skipped.Stop()
	v.Advance(time.Hour + resets - 1)
	if fired != 0 || v.Pending() != 1 {
		t.Fatalf("fired = %d, pending = %d before the last Reset's deadline; want 0, 1", fired, v.Pending())
	}
	v.Advance(1)
	if fired != 1 || v.Pending() != 0 || stored() != 0 {
		t.Fatalf("fired = %d, pending = %d, stored = %d; want 1, 0, 0", fired, v.Pending(), stored())
	}
}

// slotsInUse counts the slots of v's table that are on no free chain.
func slotsInUse(v *Virtual) int {
	used := len(v.slots)
	for _, s := range v.free {
		for ; s != 0; s = uint32(v.slots[s-1].gen) {
			used--
		}
	}
	return used
}

// TestAfterFuncTimelineSpendsNoYields is the settle rule: each callback
// is complete when it returns, so one Advance spends its entry and exit
// yield rounds and none between events.
func TestAfterFuncTimelineSpendsNoYields(t *testing.T) {
	v := NewVirtual()
	const events = 100000
	fired := 0
	var tm Timer
	tm = v.AfterFunc(time.Millisecond, func() {
		if fired++; fired < events {
			tm.Reset(time.Millisecond)
		}
	})
	before := v.yieldRounds.Load()
	v.Advance(events * time.Millisecond)
	if fired != events {
		t.Fatalf("fired = %d, want %d", fired, events)
	}
	if got := v.yieldRounds.Load() - before; got != 2 {
		t.Fatalf("%d yield rounds across %d AfterFunc events, want 2 (entry and exit)", got, events)
	}
}

func TestOrDefaultsToSystem(t *testing.T) {
	if Or(nil) != System() {
		t.Fatal("Or(nil) is not the system clock")
	}
	v := NewVirtual()
	if Or(v) != Clock(v) {
		t.Fatal("Or(v) did not pass v through")
	}
}

func TestRealClockSmoke(t *testing.T) {
	c := System()
	t0 := c.Now()
	fired := make(chan time.Time)
	tm := c.AfterFunc(time.Millisecond, func() { fired <- c.Now() })
	if at := <-fired; at.Sub(t0) < time.Millisecond || c.Since(t0) <= 0 {
		t.Fatalf("fired %v after arming, want at least 1ms", at.Sub(t0))
	}
	if tm.Stop() {
		t.Fatal("Stop of a fired timer reported armed")
	}
	if tm.Reset(time.Hour) || !tm.Stop() {
		t.Fatal("Reset of a fired timer reported armed, or Stop of the re-armed one unarmed")
	}
}

// TestVirtualStepFiresOneEvent: Drain(1) is one step of the clock — it
// fires the earliest pending event whatever its time and moves the clock
// onto it, and on an empty clock it fires nothing.
func TestVirtualStepFiresOneEvent(t *testing.T) {
	v := NewVirtual()
	var order []int
	v.AfterFunc(time.Hour, func() { order = append(order, 2) })
	v.AfterFunc(time.Second, func() { order = append(order, 1) })
	if fired, _ := v.Drain(1); fired != 1 || len(order) != 1 || order[0] != 1 || v.Elapsed() != time.Second {
		t.Fatalf("first step: fired %d, order = %v, elapsed = %v", fired, order, v.Elapsed())
	}
	if fired, _ := v.Drain(1); fired != 1 || len(order) != 2 || v.Elapsed() != time.Hour {
		t.Fatalf("second step: fired %d, order = %v, elapsed = %v", fired, order, v.Elapsed())
	}
	if fired, drained := v.Drain(1); fired != 0 || !drained {
		t.Fatalf("step on an empty clock = %d, %v; want 0, true", fired, drained)
	}
}

// TestDrainRunsToQuiescenceWithinLimit: Drain fires events in (time,
// arming) order whatever their time, follows chains the events arm,
// leaves the clock at the last event fired, and stops at its limit with
// the rest still pending.
func TestDrainRunsToQuiescenceWithinLimit(t *testing.T) {
	v := NewVirtual()
	var order []int
	v.AfterFunc(time.Hour, func() {
		order = append(order, 2)
		v.AfterFunc(time.Minute, func() { order = append(order, 3) })
	})
	v.AfterFunc(time.Second, func() { order = append(order, 1) })
	fired, drained := v.Drain(2)
	if fired != 2 || drained || len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("Drain(2) = %d, %v with order %v, want two events fired and one pending", fired, drained, order)
	}
	fired, drained = v.Drain(10)
	if fired != 1 || !drained || len(order) != 3 || order[2] != 3 {
		t.Fatalf("second Drain = %d, %v with order %v, want the chained event", fired, drained, order)
	}
	if got := v.Elapsed(); got != time.Hour+time.Minute {
		t.Fatalf("clock at %v after Drain, want the last event's time %v", got, time.Hour+time.Minute)
	}
}

// TestSlotTableFollowsPendingSet: a burst of 10 000 events grows the slot
// table to hold them; once they have fired and ten events cycle on their
// own, the table shrinks back — but not past a slot still in use: one
// event of the burst, due at 15 s, holds a slot near its top, and the
// table keeps it until it has fired. Then the table shrinks to its
// smallest size. Every slot in use holds a queued event throughout, and
// the ten keep firing on time. An arming takes the lowest free slot, so
// the events armed after the burst sit at the bottom of the table and the
// ranges above empty.
func TestSlotTableFollowsPendingSet(t *testing.T) {
	v := NewVirtual()
	late := false
	for i := range 10_000 {
		if i == 9_000 {
			v.Arm(15*time.Second, func() { late = true })
			continue
		}
		v.Arm(time.Duration(i)*time.Microsecond, func() {})
	}
	if n := len(v.slots); n < 10_000 {
		t.Fatalf("%d slots for 10 000 pending events", n)
	}
	fired := make([]int, 10)
	for i := range fired {
		var tick func()
		tick = func() {
			fired[i]++
			v.Arm(time.Millisecond, tick)
		}
		v.Arm(time.Duration(i+1)*time.Microsecond, tick)
	}
	v.Advance(10 * time.Second)
	if used := slotsInUse(v); used != v.queue.Len() || used != 11 {
		t.Fatalf("%d slots in use for %d queued entries, want 11", used, v.queue.Len())
	}
	if n := len(v.slots); n <= 9_000 {
		t.Fatalf("%d slots with the event armed 9000th of the burst still pending", n)
	}
	v.Advance(10 * time.Second)
	if !late {
		t.Fatal("the event due at 15 s did not fire")
	}
	if used := slotsInUse(v); used != v.queue.Len() || used != 10 {
		t.Fatalf("%d slots in use for %d queued entries, want 10", used, v.queue.Len())
	}
	if n := len(v.slots); n != minSlots {
		t.Errorf("%d slots for 10 pending events, want the smallest table, %d", n, minSlots)
	}
	for i, n := range fired {
		if n != 20_000 {
			t.Fatalf("event %d fired %d times in 20 s at 1 ms, want 20 000", i, n)
		}
	}
}
