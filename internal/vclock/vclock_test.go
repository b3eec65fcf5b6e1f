package vclock

import (
	goruntime "runtime"
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
	tm := v.NewTimer(50 * time.Millisecond)
	v.Advance(49 * time.Millisecond)
	select {
	case <-tm.C():
		t.Fatal("timer fired early")
	default:
	}
	v.Advance(time.Millisecond)
	select {
	case at := <-tm.C():
		if want := v.Now(); !at.Equal(want) {
			t.Fatalf("fired at %v, want %v", at, want)
		}
	default:
		t.Fatal("timer did not fire at its deadline")
	}
}

func TestVirtualTimerStopAndReset(t *testing.T) {
	v := NewVirtual()
	tm := v.NewTimer(10 * time.Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop on an armed timer reported false")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
	v.Advance(20 * time.Millisecond)
	select {
	case <-tm.C():
		t.Fatal("stopped timer fired")
	default:
	}
	if tm.Reset(5 * time.Millisecond) {
		t.Fatal("Reset of a stopped timer reported armed")
	}
	v.Advance(5 * time.Millisecond)
	select {
	case <-tm.C():
	default:
		t.Fatal("reset timer did not fire")
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

func TestVirtualTickerAndStop(t *testing.T) {
	v := NewVirtual()
	tk := v.NewTicker(time.Millisecond)
	seen := 0
	for i := 0; i < 5; i++ {
		v.Advance(time.Millisecond)
		select {
		case <-tk.C():
			seen++
		default:
			t.Fatalf("tick %d missing", i)
		}
	}
	tk.Stop()
	v.Advance(10 * time.Millisecond)
	select {
	case <-tk.C():
		t.Fatal("stopped ticker ticked")
	default:
	}
	if seen != 5 {
		t.Fatalf("seen = %d", seen)
	}
}

// TestTickerStopsWhileOwnerFiresItsTicks is the race-detector case for a
// ticker: another goroutine stops it while the owner is firing its ticks.
// Once Stop has returned, and a tick already under way has landed, one
// more Advance delivers nothing and leaves nothing pending.
func TestTickerStopsWhileOwnerFiresItsTicks(t *testing.T) {
	for round := 1; round <= 20; round++ {
		v := NewVirtual()
		tk := v.NewTicker(time.Millisecond)
		stopped := make(chan struct{})
		go func() {
			defer close(stopped)
			for i := 0; i < round; i++ {
				<-tk.C()
			}
			tk.Stop()
		}()
		for done := false; !done; {
			v.Advance(100 * time.Millisecond)
			select {
			case <-stopped:
				done = true
			default:
			}
		}
		select {
		case <-tk.C(): // the tick the owner was delivering as Stop ran
		default:
		}
		v.Advance(time.Second)
		select {
		case <-tk.C():
			t.Fatalf("round %d: a tick arrived after Stop returned", round)
		default:
		}
		if n := v.Pending(); n != 0 {
			t.Fatalf("round %d: %d events pending after Stop", round, n)
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

func TestVirtualWorkersSleepSimulatedHours(t *testing.T) {
	// The SNIPPETS-style harness shape: N workers repeatedly sleeping on
	// the shared clock; the advancing goroutine settles between events,
	// so every worker observes every interval. 8 workers × 60 sleeps of
	// 1 virtual minute — 8 simulated hours — in wall-clock milliseconds.
	v := NewVirtual()
	const workers, naps = 8, 60
	var done atomic.Int64
	for i := 0; i < workers; i++ {
		v.Go(func() {
			for n := 0; n < naps; n++ {
				v.Sleep(time.Minute)
			}
			done.Add(1)
		})
	}
	v.Advance(time.Duration(naps) * time.Minute)
	if got := done.Load(); got != workers {
		t.Fatalf("%d of %d workers finished", got, workers)
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

func TestVirtualStepFiresOneEvent(t *testing.T) {
	v := NewVirtual()
	var order []int
	v.AfterFunc(time.Hour, func() { order = append(order, 2) })
	v.AfterFunc(time.Second, func() { order = append(order, 1) })
	if !v.Step() || len(order) != 1 || order[0] != 1 || v.Elapsed() != time.Second {
		t.Fatalf("first Step: order = %v, elapsed = %v", order, v.Elapsed())
	}
	if !v.Step() || len(order) != 2 || v.Elapsed() != time.Hour {
		t.Fatalf("second Step: order = %v, elapsed = %v", order, v.Elapsed())
	}
	if v.Step() {
		t.Fatal("Step on an empty clock reported an event")
	}
}

// TestResetDoesNotGrowHeap: a timer re-armed in a loop (every lease
// renewal on a virtual clock) leaves a bounded number of entries queued,
// withdrawn ones included, not one per Reset — whether the owner collects
// the inbox between Resets (the first half: the queue's sweep bounds it)
// or not (the second half: the inbox's) — and Pending and NextAt, the
// harness's deadlock probe, stay exact. Every slot in use holds a queued
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
	if at, ok := v.NextAt(); !ok || at.Sub(v.Now()) != time.Hour+resets {
		t.Fatalf("NextAt = %v, %v; want the last Reset's deadline", at, ok)
	}
	skipped := v.AfterFunc(time.Minute, func() { fired++ })
	v.Pending() // queued, where only the pop finds it withdrawn
	skipped.Stop()
	v.Advance(2 * time.Hour)
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

// TestAfterFuncTimelineSpendsNoYields is the settle rule's fast side: on
// a timeline of AfterFunc events only, with no registered worker, each
// callback is complete when it returns, so one Advance spends its entry
// and exit yield rounds and none between events.
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

// TestUnregisteredTickerReceiverSeesTicks is the settle rule's other
// side: a goroutine that never registered with Go, ranging over a ticker
// channel, still gets a turn after every tick of one long Advance —
// the tick is a handoff, and a handoff buys a yield round. One P makes
// the turn-taking exact: without the yield round the receiver would run
// only when Advance returns, and see one tick.
func TestUnregisteredTickerReceiverSeesTicks(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	v := NewVirtual()
	const ticks = 100
	tk := v.NewTicker(time.Millisecond)
	var seen atomic.Int64
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-tk.C():
				seen.Add(1)
			case <-stop:
				return
			}
		}
	}()
	before := v.yieldRounds.Load()
	v.Advance(ticks * time.Millisecond)
	tk.Stop()
	close(stop)
	<-stopped
	if got := seen.Load(); got < ticks*9/10 {
		t.Fatalf("receiver saw %d of %d ticks", got, ticks)
	}
	if got := v.yieldRounds.Load() - before; got != ticks+2 {
		t.Fatalf("%d yield rounds across %d ticks, want one per tick plus entry and exit", got, ticks)
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
	tm := c.NewTimer(time.Millisecond)
	<-tm.C()
	if c.Since(t0) <= 0 {
		t.Fatal("real time did not advance")
	}
	fired := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(fired) })
	<-fired
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
