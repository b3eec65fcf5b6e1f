package vclock

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"dagmutex/internal/sched"
)

// TestTimelineAndTimerSameInstantOrder: the owner's timeline and the
// locked timer queue are one timeline to whoever watches events fire —
// an Arm event and an AfterFunc or channel-timer event due at the same
// instant fire in the order they were armed, whichever came first.
func TestTimelineAndTimerSameInstantOrder(t *testing.T) {
	v := NewVirtual()
	var order []int
	note := func(i int) func() { return func() { order = append(order, i) } }
	v.Arm(time.Second, note(0))
	v.AfterFunc(time.Second, note(1))
	v.Arm(time.Second, note(2))
	tm := v.NewTimer(time.Second) // fires fourth: its tick is buffered before event 4 runs
	v.Arm(time.Second, func() {
		select {
		case <-tm.C():
			order = append(order, 3)
		default:
			t.Error("the channel timer armed before this event had not fired")
		}
		note(4)()
	})
	v.AfterFunc(time.Second, note(5))
	v.AfterFunc(500*time.Millisecond, func() {
		// Armed from a callback, for an instant that already has events
		// on both queues: behind all of them, in arming order.
		v.AfterFunc(500*time.Millisecond, note(6))
		v.Arm(500*time.Millisecond, note(7))
	})
	v.Advance(time.Second)
	for i := range order {
		if order[i] != i {
			t.Fatalf("order = %v, want 0..7", order)
		}
	}
	if len(order) != 8 {
		t.Fatalf("fired %d of 8: %v", len(order), order)
	}
}

// TestBothQueuesPendingNextAtStepDrainRun: everything that counts or
// fires events sees the two queues as one.
func TestBothQueuesPendingNextAtStepDrainRun(t *testing.T) {
	v := NewVirtual()
	var order []int
	note := func(i int) func() { return func() { order = append(order, i) } }
	t0 := v.Now()
	v.AfterFunc(3*time.Second, note(2))
	v.Arm(2*time.Second, note(1))
	v.Arm(4*time.Second, note(3))
	v.AfterFunc(time.Second, note(0))
	stopped := v.AfterFunc(time.Millisecond, note(-1))
	if v.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5 over both queues", v.Pending())
	}
	stopped.Stop()
	if at, ok := v.NextAt(); !ok || at.Sub(t0) != time.Second || v.Pending() != 4 {
		t.Fatalf("NextAt = %v, %v with %d pending; want the timer at 1s of 4", at.Sub(t0), ok, v.Pending())
	}
	if !v.Step() || len(order) != 1 || v.Elapsed() != time.Second {
		t.Fatalf("Step: order = %v at %v, want the locked event at 1s", order, v.Elapsed())
	}
	if at, ok := v.NextAt(); !ok || at.Sub(t0) != 2*time.Second {
		t.Fatalf("NextAt = %v, %v; want the timeline event at 2s", at.Sub(t0), ok)
	}
	if !v.Step() || len(order) != 2 || v.Elapsed() != 2*time.Second {
		t.Fatalf("Step: order = %v at %v, want the timeline event at 2s", order, v.Elapsed())
	}
	if fired := v.Run(time.Second); fired != 1 || v.Pending() != 1 {
		t.Fatalf("Run(1s) fired %d leaving %d, want 1 and 1", fired, v.Pending())
	}
	v.AfterFunc(5*time.Second, note(4))
	if fired, drained := v.Drain(10); fired != 2 || !drained || v.Pending() != 0 {
		t.Fatalf("Drain = %d, %v with %d pending; want 2, true, 0", fired, drained, v.Pending())
	}
	if _, ok := v.NextAt(); ok || v.Step() {
		t.Fatal("an empty clock still reports an event")
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("order = %v, want 0..4", order)
		}
	}
	if len(order) != 5 || v.Elapsed() != 8*time.Second {
		t.Fatalf("fired %v, clock at %v; want five events and 8s", order, v.Elapsed())
	}
}

// TestVirtualMatchesSchedulerAcrossQueues arms a seeded mix of Arm and
// AfterFunc events — few distinct delays, so most instants hold several
// events from both queues — stops and resets some of the timers, pops in
// between with Step, and wants exactly the order one sched.Scheduler
// gives the same script.
func TestVirtualMatchesSchedulerAcrossQueues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := NewVirtual()
	ref := sched.NewScheduler()
	var got, want []int
	type timer struct {
		tm  Timer
		ev  sched.Event
		fn  func()
		ref func()
	}
	var timers []timer
	now := func() sched.Time { return sched.Time(v.Elapsed()) }
	for step, id := 0, 0; step < 100000; step++ {
		d := time.Duration(rng.Intn(4))
		if rng.Intn(8) == 0 {
			d <<= uint(rng.Intn(30))
		}
		switch op := rng.Intn(10); {
		case op < 3:
			id++
			n := id
			v.Arm(d, func() { got = append(got, n) })
			ref.AtEvent(now()+sched.Time(d), func() { want = append(want, n) })
		case op < 5:
			id++
			n := id
			tm := timer{fn: func() { got = append(got, n) }, ref: func() { want = append(want, n) }}
			tm.tm = v.AfterFunc(d, tm.fn)
			tm.ev = ref.AtEvent(now()+sched.Time(d), tm.ref)
			timers = append(timers, tm)
		case op < 6 && len(timers) > 0:
			tm := &timers[rng.Intn(len(timers))]
			if a, b := tm.tm.Stop(), ref.Cancel(tm.ev); a != b {
				t.Fatalf("step %d: Stop = %v, the reference's Cancel = %v", step, a, b)
			}
		case op < 7 && len(timers) > 0:
			tm := &timers[rng.Intn(len(timers))]
			a, b := tm.tm.Reset(d), ref.Cancel(tm.ev)
			tm.ev = ref.AtEvent(now()+sched.Time(d), tm.ref)
			if a != b {
				t.Fatalf("step %d: Reset = %v, the reference's Cancel = %v", step, a, b)
			}
		default:
			at, _ := ref.NextAt()
			fn, ok := ref.PopDue(sched.Time(1) << 61)
			if stepped := v.Step(); stepped != ok {
				t.Fatalf("step %d: Step = %v, the reference has an event: %v", step, stepped, ok)
			}
			if !ok {
				continue
			}
			fn()
			if now() != at || v.Pending() != ref.Pending() {
				t.Fatalf("step %d: clock at %d with %d pending, the reference at %d with %d",
					step, now(), v.Pending(), at, ref.Pending())
			}
		}
		if len(got) != len(want) || len(got) > 0 && got[len(got)-1] != want[len(want)-1] {
			t.Fatalf("step %d: fired %v, the reference %v", step, tail(got), tail(want))
		}
	}
	if len(got) < 20000 {
		t.Fatalf("only %d events fired: the script is not exercising the queues", len(got))
	}
}

func tail(s []int) []int { return s[max(0, len(s)-5):] }

// TestTimelineEventsTakeNoLock: while the locked queue's earliest event
// is later than the timeline's, firing takes no lock — the whole Advance
// runs with the clock's mutex held by someone else.
func TestTimelineEventsTakeNoLock(t *testing.T) {
	v := NewVirtual()
	v.AfterFunc(time.Hour, func() {})
	v.Arm(2*time.Hour, func() {})
	fired := 0
	var chain func()
	chain = func() {
		if fired++; fired < 1000 {
			v.Arm(time.Second, chain)
		}
		if v.Elapsed() != time.Duration(fired)*time.Second || !v.Now().Equal(v.base.Add(v.Elapsed())) {
			t.Errorf("event %d sees the clock at %v", fired, v.Elapsed())
		}
	}
	v.Arm(time.Second, chain)
	v.mu.Lock()
	done := make(chan struct{})
	go func() { // the owner for this one advance
		defer close(done)
		v.Advance(30 * time.Minute)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("an advance over timeline events alone waited for the clock's lock")
	}
	v.mu.Unlock()
	if fired != 1000 || v.Pending() != 2 {
		t.Fatalf("fired = %d with %d pending, want 1000 and 2", fired, v.Pending())
	}
}

// TestConcurrentTimersWhileOwnerRunsTimeline is the race-detector case:
// the owner fires 100k timeline events while another goroutine arms,
// stops and resets timers on the locked queue and reads the time. Every
// arming that was not stopped fires exactly once; time never runs
// backwards for either side.
func TestConcurrentTimersWhileOwnerRunsTimeline(t *testing.T) {
	v := NewVirtual()
	const events = 100000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var mu sync.Mutex // the timers' callbacks run on the owner
	armed, timerFired := 0, 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := v.Now()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tm := v.AfterFunc(time.Duration(i%50)*time.Microsecond, func() {
				mu.Lock()
				timerFired++
				mu.Unlock()
			})
			fires := 1
			switch i % 3 {
			case 1:
				if tm.Stop() {
					fires = 0
				}
			case 2:
				if !tm.Reset(time.Duration(i%7) * time.Microsecond) {
					fires = 2 // it had fired already, and will again
				}
			}
			mu.Lock()
			armed += fires
			mu.Unlock()
			if now := v.Now(); now.Before(last) {
				t.Errorf("Now went backwards: %v after %v", now, last)
				return
			} else {
				last = now
			}
		}
	}()
	fired := 0
	var prev time.Duration
	var chain func()
	chain = func() {
		if now := v.Elapsed(); now < prev {
			t.Errorf("timeline event %d fired at %v after %v", fired, now, prev)
		} else {
			prev = now
		}
		if fired++; fired < events {
			v.Arm(time.Microsecond, chain)
		}
	}
	v.Arm(time.Microsecond, chain)
	v.Advance(events * time.Microsecond)
	close(stop)
	wg.Wait()
	v.Advance(time.Second) // whatever the other goroutine armed last
	if fired != events {
		t.Fatalf("fired %d timeline events, want %d", fired, events)
	}
	if timerFired != armed || v.Pending() != 0 {
		t.Fatalf("timers fired %d times for %d armings left standing, %d events still pending", timerFired, armed, v.Pending())
	}
}
