package vclock

import (
	"container/heap"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestTimelineAndTimerSameInstantOrder: Arm events and timers share one
// queue — an Arm event and an AfterFunc event due at the same instant
// fire in the order they were armed, whichever came first.
func TestTimelineAndTimerSameInstantOrder(t *testing.T) {
	v := NewVirtual()
	var order []int
	note := func(i int) func() { return func() { order = append(order, i) } }
	v.Arm(time.Second, note(0))
	v.AfterFunc(time.Second, note(1))
	v.Arm(time.Second, note(2))
	v.AfterFunc(time.Second, note(3))
	v.Arm(time.Second, note(4))
	v.AfterFunc(time.Second, note(5))
	v.AfterFunc(500*time.Millisecond, func() {
		// Armed from a callback, for an instant that already has events
		// of both kinds: behind all of them, in arming order.
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

// TestBothQueuesPendingDrainRun: everything that counts or fires events
// sees Arm events and timers as one queue, and passes over a stopped
// timer.
func TestBothQueuesPendingDrainRun(t *testing.T) {
	v := NewVirtual()
	var order []int
	note := func(i int) func() { return func() { order = append(order, i) } }
	v.AfterFunc(3*time.Second, note(2))
	v.Arm(2*time.Second, note(1))
	v.Arm(4*time.Second, note(3))
	v.AfterFunc(time.Second, note(0))
	stopped := v.AfterFunc(time.Millisecond, note(-1))
	if v.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", v.Pending())
	}
	stopped.Stop()
	if v.Pending() != 4 {
		t.Fatalf("Pending = %d after a Stop, want 4", v.Pending())
	}
	if fired, _ := v.Drain(1); fired != 1 || len(order) != 1 || v.Elapsed() != time.Second {
		t.Fatalf("Drain(1): order = %v at %v, want the timer at 1s", order, v.Elapsed())
	}
	if fired, _ := v.Drain(1); fired != 1 || len(order) != 2 || v.Elapsed() != 2*time.Second {
		t.Fatalf("Drain(1): order = %v at %v, want the Arm event at 2s", order, v.Elapsed())
	}
	if fired := v.Run(time.Second); fired != 1 || v.Pending() != 1 {
		t.Fatalf("Run(1s) fired %d leaving %d, want 1 and 1", fired, v.Pending())
	}
	v.AfterFunc(5*time.Second, note(4))
	if fired, drained := v.Drain(10); fired != 2 || !drained || v.Pending() != 0 {
		t.Fatalf("Drain = %d, %v with %d pending; want 2, true, 0", fired, drained, v.Pending())
	}
	if fired, drained := v.Drain(10); fired != 0 || !drained {
		t.Fatal("an empty clock still fires an event")
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

// TestDrainPastWithdrawnTimersLeavesArmingOpen: a Drain or a Run that
// finds only withdrawn events, due later than now, fires nothing and
// leaves the clock where it was (Drain) or at its horizon (Run), and
// events armed after it may be due in any order — by Arm, or by timers
// the owner collects in decreasing order.
func TestDrainPastWithdrawnTimersLeavesArmingOpen(t *testing.T) {
	v := NewVirtual()
	var order []int
	note := func(i int) func() { return func() { order = append(order, i) } }
	tm := v.AfterFunc(100, note(-1))
	v.Pending() // collects the timer onto the queue
	tm.Stop()
	if fired, drained := v.Drain(1); fired != 0 || !drained || v.Elapsed() != 0 {
		t.Fatalf("Drain(1) over a stopped timer = %d, %v, or moved the clock to %v", fired, drained, v.Elapsed())
	}
	v.Arm(50, note(2))
	v.Arm(10, note(0))
	v.AfterFunc(30, note(1))
	v.Advance(60)
	tm = v.AfterFunc(1000, note(-1))
	v.Pending()
	tm.Stop()
	if fired, drained := v.Drain(10); fired != 0 || !drained || v.Elapsed() != 60 {
		t.Fatalf("Drain over a stopped timer = %d, %v with the clock at %v; want 0, true, 60ns", fired, drained, v.Elapsed())
	}
	v.AfterFunc(70, note(4))
	v.AfterFunc(30, note(3))
	v.Arm(20, func() {}) // collects both timers, the later one first
	v.Advance(100)
	tm = v.AfterFunc(500, note(-1))
	v.Pending()
	tm.Stop()
	if fired := v.Run(1000); fired != 0 || v.Elapsed() != 1160 {
		t.Fatalf("Run over a stopped timer fired %d with the clock at %v; want 0 and 1160ns", fired, v.Elapsed())
	}
	v.AfterFunc(20, note(6))
	v.Arm(10, note(5))
	v.Advance(20)
	for i := range order {
		if order[i] != i {
			t.Fatalf("order = %v, want 0..6", order)
		}
	}
	if len(order) != 7 || v.Pending() != 0 {
		t.Fatalf("fired %v with %d pending, want 0..6 and none", order, v.Pending())
	}
}

// model is the reference the clock is held to: a container/heap binary
// heap of events ordered on (time, arming order), each knowing its index
// so that Stop and Reset can take it out.
type model []*armed

type armed struct {
	at    time.Duration
	order int
	id    int
	index int // in the heap; -1 once fired or withdrawn
}

func (m model) Len() int { return len(m) }
func (m model) Less(i, j int) bool {
	return m[i].at < m[j].at || m[i].at == m[j].at && m[i].order < m[j].order
}
func (m model) Swap(i, j int) {
	m[i], m[j] = m[j], m[i]
	m[i].index, m[j].index = i, j
}
func (m *model) Push(x any) {
	a := x.(*armed)
	a.index = len(*m)
	*m = append(*m, a)
}
func (m *model) Pop() any {
	old := *m
	a := old[len(old)-1]
	*m = old[:len(old)-1]
	a.index = -1
	return a
}

// withdraw takes a out of the model, reporting whether it was pending.
func (m *model) withdraw(a *armed) bool {
	if a.index < 0 {
		return false
	}
	heap.Remove(m, a.index)
	return true
}

// TestVirtualMatchesModel arms a seeded mix of Arm and AfterFunc events —
// few distinct delays, so most instants hold several events of both
// kinds — stops and resets some of the timers, pops one event at a time
// in between with Drain(1), and wants the model's order, times and
// pending counts.
func TestVirtualMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := NewVirtual()
	var ref model
	order := 0
	arm := func(d time.Duration, id int) *armed {
		order++
		a := &armed{at: v.Elapsed() + d, order: order, id: id}
		heap.Push(&ref, a)
		return a
	}
	type timer struct {
		tm  Timer
		ref *armed
	}
	var timers []timer
	var got []int
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
			arm(d, n)
		case op < 5:
			id++
			n := id
			tm := v.AfterFunc(d, func() { got = append(got, n) })
			timers = append(timers, timer{tm: tm, ref: arm(d, n)})
		case op < 6 && len(timers) > 0:
			tm := &timers[rng.Intn(len(timers))]
			if a, b := tm.tm.Stop(), ref.withdraw(tm.ref); a != b {
				t.Fatalf("step %d: Stop = %v, the model had it pending: %v", step, a, b)
			}
		case op < 7 && len(timers) > 0:
			tm := &timers[rng.Intn(len(timers))]
			a, b := tm.tm.Reset(d), ref.withdraw(tm.ref)
			tm.ref = arm(d, tm.ref.id)
			if a != b {
				t.Fatalf("step %d: Reset = %v, the model had it pending: %v", step, a, b)
			}
		default:
			fired := len(got)
			n, _ := v.Drain(1)
			if stepped := n == 1; stepped != (ref.Len() > 0) {
				t.Fatalf("step %d: Drain(1) fired %d with %d pending in the model", step, n, ref.Len())
			}
			if n == 0 {
				continue
			}
			want := heap.Pop(&ref).(*armed)
			if len(got) != fired+1 || got[fired] != want.id || v.Elapsed() != want.at || v.Pending() != ref.Len() {
				t.Fatalf("step %d: fired %v at %v with %d pending; the model fires %d at %v with %d",
					step, got[fired:], v.Elapsed(), v.Pending(), want.id, want.at, ref.Len())
			}
		}
	}
	if len(got) < 20000 {
		t.Fatalf("only %d events fired: the script is not exercising the queue", len(got))
	}
}

// TestTimelineEventsTakeNoLock: once the owner has collected what timers
// posted (the Arm after the AfterFunc here does), arming and firing take
// no lock while no timer is armed — the whole Advance runs with the
// clock's mutex held by someone else.
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
		t.Fatal("an advance over Arm events alone waited for the clock's lock")
	}
	v.mu.Unlock()
	if fired != 1000 || v.Pending() != 2 {
		t.Fatalf("fired = %d with %d pending, want 1000 and 2", fired, v.Pending())
	}
}

// TestConcurrentTimersWhileOwnerRunsTimeline is the race-detector case:
// the owner fires 100k Arm events while another goroutine arms, stops and
// resets timers through the inbox and reads the time. Every arming that
// was not stopped fires exactly once; time never runs backwards for
// either side.
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
			t.Errorf("Arm event %d fired at %v after %v", fired, now, prev)
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
		t.Fatalf("fired %d Arm events, want %d", fired, events)
	}
	if timerFired != armed || v.Pending() != 0 {
		t.Fatalf("timers fired %d times for %d armings left standing, %d events still pending", timerFired, armed, v.Pending())
	}
}
