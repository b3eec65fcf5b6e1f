package vclock

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"dagmutex/internal/sched"
)

// Virtual is the deterministic clock: time is a number that moves only
// when Advance, Step, Run or Drain says so, and everything scheduled on the
// clock (timers, tickers, AfterFunc chains, Sleeps, a simulation's events)
// fires as ordered events on the goroutine doing the advancing. The event
// queues are internal/sched's, with one tick per nanosecond — the
// discrete event core and the wall-clock surface are the same machine.
//
// Ordering is total and reproducible: events fire in (time, scheduling
// order) — two events due at the same instant fire in the order they
// were armed, every run, whichever of the two queues below each is on.
//
// Concurrency model. The clock itself is safe for concurrent use (any
// goroutine may read Now or arm, stop and reset timers), but virtual time
// advances single-threadedly: exactly one goroutine, the clock's owner —
// the test, or the simulator's loop — calls Advance/Step/Run/Drain, and
// event callbacks run synchronously on it.
//
// That split is two queues. Timers, tickers, AfterFunc and Sleep live on
// a cancellable queue under the clock's lock. Arm puts an event on the
// owner's timeline instead: a handle-less queue that only the owner
// touches — Arm may be called from an event callback, or between
// advances by the goroutine that makes them, and from nowhere else — so
// it takes no lock. The owner fires the earlier of the two queues' heads;
// it looks at the locked queue only when that queue's earliest due time,
// which every change to it publishes, says it could be next. A callback
// that has returned is complete, so a timeline made only of Arm events
// (the simulator's) costs a queue pop and the callback per event, nothing
// else. Pending and NextAt count the timeline too, and are therefore the
// owner's to call once anything has been armed on it.
//
// Other goroutines come in two kinds. Goroutines that park on virtual
// time (Sleep, a timer channel) register with Go so the clock can
// account for them: while any worker is registered the advancing
// goroutine settles between events, yielding until every registered
// worker is parked again (the runnable-goroutine accounting that keeps
// "advance one heartbeat" from racing the goroutine the previous event
// woke — a Sleep's wake-up takes the sleeper off the idle count itself,
// so a woken worker is waited for even before the Go scheduler has run
// it). A goroutine that was not registered may still use the clock; it
// is not waited for, but it is given a turn: an event that hands
// something to another goroutine — a channel timer or ticker delivering
// its tick, a Sleep waking up — is followed by one blind round of
// scheduler yields before the next event fires. Advance, Run and Step
// also settle once on entry, and Advance and Run once more before they
// return, so whatever the caller did before advancing, or an AfterFunc
// callback started on another goroutine, has had its turn by the time
// the caller looks.
//
// The advancing goroutine must never Sleep on the clock it advances —
// that is a self-deadlock, and the settle timeout turns it into a
// panic with a diagnostic instead of a hang.
type Virtual struct {
	base time.Time
	// now is the virtual time, in ticks since base. Only the owner moves
	// it; anyone may read it.
	now atomic.Int64

	mu    sync.Mutex
	sched *sched.Scheduler // the locked queue; guarded by mu
	// lockedDue and lockedSeq are what the owner needs to know about the
	// locked queue without taking mu: when its earliest event is due (never
	// when it is empty) and how many events were ever armed on it. Written
	// under mu by publishLocked.
	lockedDue atomic.Int64
	lockedSeq atomic.Uint64

	// The owner's: the timeline and the count of events fired from either
	// queue. An Arm event carries the lockedSeq it was armed under, which
	// places it among the locked queue's events: after those armed before
	// it, before those armed later.
	timeline sched.Timeline
	fired    uint64

	workers  atomic.Int64  // goroutines registered via Go
	idle     atomic.Int64  // registered workers currently parked in Block/Sleep
	activity atomic.Uint64 // bumped on park transitions; with lockedSeq, settle's stability check

	// handoff is set by an event that passed something to another
	// goroutine and cleared by the advancing goroutine when it spends the
	// yield round that pays for.
	handoff atomic.Bool
	// yieldRounds counts blind yield rounds, for the settle-rule tests.
	yieldRounds atomic.Uint64
}

// settleYields is how many scheduler yields one settle round spends
// letting woken goroutines run before re-checking the idle condition.
const settleYields = 16

// settleTimeout bounds how long Advance waits for registered workers to
// park again before declaring the configuration deadlocked.
const settleTimeout = 10 * time.Second

// never is the due time of nothing: later than any event.
const never = sched.Time(1)<<62 - 1

// due is a queue's NextAt as one value: never when the queue is empty.
func due(at sched.Time, ok bool) sched.Time {
	if !ok {
		return never
	}
	return at
}

// NewVirtual returns a virtual clock at a fixed epoch (2000-01-01 UTC —
// arbitrary, non-zero so lease deadlines survive IsZero checks).
func NewVirtual() *Virtual {
	v := &Virtual{
		sched: sched.NewScheduler(),
		base:  time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	v.lockedDue.Store(int64(never))
	return v
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time { return v.base.Add(v.Elapsed()) }

// Since returns Now().Sub(t).
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Until returns t.Sub(Now()).
func (v *Virtual) Until(t time.Time) time.Duration { return t.Sub(v.Now()) }

// Elapsed returns how much virtual time has passed since the epoch.
func (v *Virtual) Elapsed() time.Duration { return time.Duration(v.now.Load()) }

// Pending reports the number of scheduled, not-yet-fired events, on both
// queues (see the concurrency model for who may ask).
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.sched.Pending() + v.timeline.Len()
}

// NextAt reports when the earliest pending event on either queue is due,
// or false when nothing is scheduled — the harness's deadlock probe:
// workload not done and nothing pending means the protocol lost a grant.
func (v *Virtual) NextAt() (time.Time, bool) {
	at := min(due(v.timeline.NextAt()), sched.Time(v.lockedDue.Load()))
	if at == never {
		return time.Time{}, false
	}
	return v.base.Add(time.Duration(at)), true
}

// Arm schedules fn to run once, d from now, on the owner's timeline: the
// handle-less, lock-free counterpart of AfterFunc for a caller that is
// the advancing goroutine (in an event callback, or between advances) and
// will never cancel. Any other caller must use AfterFunc.
func (v *Virtual) Arm(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	v.timeline.Push(sched.Time(v.now.Load()+int64(d)), v.lockedSeq.Load(), fn)
}

// scheduleLocked arms one event d from now on the locked queue and
// returns its handle. Caller holds v.mu, and publishes the change before
// releasing it (unlockChanged).
func (v *Virtual) scheduleLocked(d time.Duration, fn func()) sched.Event {
	if d < 0 {
		d = 0
	}
	return v.sched.AtEvent(sched.Time(v.now.Load()+int64(d)), fn)
}

// publishLocked tells the owner what a change to the locked queue left
// there. The due time goes first: an owner that armed a timeline event
// under the new count then finds the locked event it sorts behind. Caller
// holds v.mu.
func (v *Virtual) publishLocked() {
	if at := int64(due(v.sched.NextAt())); at != v.lockedDue.Load() {
		v.lockedDue.Store(at)
	}
	if seq := v.sched.Seq(); seq != v.lockedSeq.Load() {
		v.lockedSeq.Store(seq)
	}
}

// unlockChanged releases v.mu after a change to the locked queue.
func (v *Virtual) unlockChanged() {
	v.publishLocked()
	v.mu.Unlock()
}

// Go runs fn on its own goroutine as a registered worker: while fn is
// running, virtual time will not advance until the worker parks on the
// clock (Sleep, or an explicit Block around a channel wait). The worker
// is deregistered when fn returns.
func (v *Virtual) Go(fn func()) {
	v.workers.Add(1)
	go func() {
		defer func() {
			v.workers.Add(-1)
			v.activity.Add(1)
		}()
		fn()
	}()
}

// Block marks the calling worker idle for the duration of fn, which must
// do nothing but park (a channel receive, a select of channel receives):
// any side effect before the park could race the event loop that Block
// just told to proceed.
func (v *Virtual) Block(fn func()) {
	v.idle.Add(1)
	v.activity.Add(1)
	fn()
	v.idle.Add(-1)
	v.activity.Add(1)
}

// yield is one blind round of scheduler yields: a turn for goroutines
// the clock does not account for.
func (v *Virtual) yield() {
	v.yieldRounds.Add(1)
	for i := 0; i < settleYields; i++ {
		goruntime.Gosched()
	}
}

// settle yields until every registered worker is parked and the system
// has been stable across a full yield round — the "all goroutines idle"
// gate before time moves.
func (v *Virtual) settle() {
	v.handoff.Store(false)
	v.yield()
	if v.workers.Load() == 0 {
		return
	}
	deadline := time.Now().Add(settleTimeout)
	for {
		gen := v.activity.Load() + v.lockedSeq.Load() // moves when a worker parks, wakes or arms a timer
		if v.idle.Load() >= v.workers.Load() {
			v.yield()
			if v.activity.Load()+v.lockedSeq.Load() == gen && v.idle.Load() >= v.workers.Load() {
				return
			}
		} else {
			goruntime.Gosched()
		}
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("vclock: virtual time cannot advance: %d of %d registered workers still runnable after %v (a worker is blocked outside Block, or the advancing goroutine slept on its own clock)",
				v.workers.Load()-v.idle.Load(), v.workers.Load(), settleTimeout))
		}
	}
}

// settleAfterEvent is the gate between two events: a full settle while a
// worker is registered, one yield round when the event just fired handed
// something to another goroutine, and nothing when it was a callback
// that ran to completion on this goroutine.
func (v *Virtual) settleAfterEvent() {
	if v.workers.Load() > 0 || v.handoff.Load() {
		v.settle()
	}
}

// popDue removes the earliest pending event due at or before target, from
// whichever queue holds it, moves the clock to it and returns its
// callback; false when nothing is due by then. Owner only. While the
// locked queue's published due time is later than the timeline's head
// this takes no lock.
func (v *Virtual) popDue(target sched.Time) (func(), bool) {
	at := due(v.timeline.NextAt())
	if locked := sched.Time(v.lockedDue.Load()); locked <= at && locked <= target {
		if fn, ok := v.popLockedBefore(at, target); ok {
			return fn, true
		}
	}
	if at == never || at > target {
		return nil, false
	}
	at, fn := v.timeline.Pop()
	v.now.Store(int64(at))
	v.fired++
	return fn, true
}

// popLockedBefore pops the locked queue's head if it is due by target
// (still: a timer may have been stopped since its due time was read) and
// fires before the timeline's head, due at timelineAt (never: the
// timeline is empty): earlier, or at the same instant and armed first.
func (v *Virtual) popLockedBefore(timelineAt, target sched.Time) (func(), bool) {
	v.mu.Lock()
	at, ok := v.sched.NextAt()
	if !ok || at > target || at > timelineAt ||
		at == timelineAt && v.sched.NextSeq() > v.timeline.NextSeq() {
		v.mu.Unlock()
		return nil, false
	}
	fn, _ := v.sched.PopDue(at)
	// An event armed by a goroutine that read the time while the owner
	// was moving it is due in the past: it fires now, and time stands.
	// The time moves under the lock so that no arming computes a due time
	// before an event this queue has already popped.
	if int64(at) > v.now.Load() {
		v.now.Store(int64(at))
	}
	v.fired++
	v.unlockChanged()
	return fn, true
}

// Step settles, then fires the single earliest pending event (whatever
// its time), advancing the clock to it, and gives whatever the event
// handed off its turn before returning. It reports false when nothing is
// pending. The unit of deterministic progress for a caller that wants to
// look between events.
func (v *Virtual) Step() bool {
	v.settle()
	fn, ok := v.popDue(never)
	if !ok {
		return false
	}
	fn()
	v.settleAfterEvent()
	return true
}

// Advance moves virtual time forward by d, firing every event due in the
// window in deterministic order and settling between events (see the
// concurrency model) so work each event handed off lands before the next
// fires.
func (v *Virtual) Advance(d time.Duration) {
	if d < 0 {
		panic("vclock: negative advance")
	}
	v.runUntil(sched.Time(v.now.Load() + int64(d)))
}

// Run is Advance that reports how many events fired: it fires every
// event due within horizon of virtual time and, like Advance, leaves the
// clock at the horizon even when the queues drained earlier.
func (v *Virtual) Run(horizon time.Duration) (fired uint64) {
	before := v.fired
	v.Advance(horizon)
	return v.fired - before
}

// Drain fires pending events in order, whatever their time, until none
// remain or limit have fired, leaving the clock at the last event fired
// — a closed-loop simulation run to quiescence. It reports how many
// fired and whether the queues drained; the limit is the caller's guard
// against a timeline that never quiesces.
func (v *Virtual) Drain(limit uint64) (fired uint64, drained bool) {
	v.settle()
	for fired < limit {
		fn, ok := v.popDue(never)
		if !ok {
			break
		}
		fn()
		fired++
		v.settleAfterEvent()
	}
	v.settle()
	return fired, v.Pending() == 0
}

func (v *Virtual) runUntil(target sched.Time) {
	v.settle()
	for {
		fn, ok := v.popDue(target)
		if !ok {
			v.now.Store(int64(target))
			v.settle()
			return
		}
		fn()
		v.settleAfterEvent()
	}
}

// Sleep parks the calling goroutine for d of virtual time. Must not be
// called from the advancing goroutine.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		goruntime.Gosched()
		return
	}
	done := make(chan struct{})
	v.mu.Lock()
	v.scheduleLocked(d, func() {
		// The sleeper is runnable from here on, whether or not it has been
		// scheduled yet: the waker takes it off the idle count, so settle
		// waits for it to park again or finish instead of racing it.
		v.idle.Add(-1)
		v.activity.Add(1)
		v.handoff.Store(true)
		close(done)
	})
	// Parked from here on, and only once the wake-up is where the owner
	// looks for it: an owner that finds every worker idle finds the event.
	v.publishLocked()
	v.idle.Add(1)
	v.mu.Unlock()
	<-done
}

// After returns a channel receiving the virtual time once, d from now.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	return v.NewTimer(d).C()
}

// NewTimer returns a timer that fires once, d of virtual time from now.
func (v *Virtual) NewTimer(d time.Duration) Timer {
	t := &vtimer{v: v, ch: make(chan time.Time, 1)}
	t.fire = t.send
	return t.arm(d)
}

// AfterFunc schedules fn to run once, d from now, on the advancing
// goroutine. The returned Timer's Stop/Reset control the scheduling; its
// C is nil, like time.AfterFunc's.
func (v *Virtual) AfterFunc(d time.Duration, fn func()) Timer {
	t := &vtimer{v: v, fire: fn}
	return t.arm(d)
}

// NewTicker returns a ticker firing every d of virtual time. Ticks a
// receiver misses are dropped (the channel holds one), like
// time.Ticker.
func (v *Virtual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("vclock: non-positive ticker interval")
	}
	t := &vticker{v: v, ch: make(chan time.Time, 1), d: d}
	t.fire = t.tick
	v.mu.Lock()
	t.ev = v.scheduleLocked(d, t.fire)
	v.unlockChanged()
	return t
}

// vtimer is one virtual timer: a scheduled event handle plus the
// callback it fires — the AfterFunc function itself, or send for a
// channel timer. fire is bound once, at construction, so re-arming the
// timer allocates nothing; the handle goes stale by itself when the
// event fires, so firing needs no bookkeeping either.
type vtimer struct {
	v    *Virtual
	ch   chan time.Time // cap 1; nil for AfterFunc timers
	fire func()
	ev   sched.Event // guarded by v.mu
}

func (t *vtimer) arm(d time.Duration) *vtimer {
	t.v.mu.Lock()
	t.ev = t.v.scheduleLocked(d, t.fire)
	t.v.unlockChanged()
	return t
}

// send is a channel timer's scheduler callback; it runs on the advancing
// goroutine and outside v.mu (popDue returns the callback unlocked
// precisely so callbacks can re-enter the clock).
func (t *vtimer) send() {
	now := t.v.Now()
	t.v.handoff.Store(true)
	select {
	case t.ch <- now:
	default:
	}
}

func (t *vtimer) C() <-chan time.Time { return t.ch }

func (t *vtimer) Stop() bool {
	t.v.mu.Lock()
	defer t.v.unlockChanged()
	return t.v.sched.Cancel(t.ev)
}

func (t *vtimer) Reset(d time.Duration) bool {
	t.v.mu.Lock()
	defer t.v.unlockChanged()
	armed := t.v.sched.Cancel(t.ev)
	t.ev = t.v.scheduleLocked(d, t.fire)
	return armed
}

// vticker is one virtual ticker: an event that re-arms itself each fire.
type vticker struct {
	v       *Virtual
	ch      chan time.Time
	d       time.Duration
	fire    func()      // tick, bound once
	ev      sched.Event // guarded by v.mu
	stopped bool        // guarded by v.mu
}

func (t *vticker) tick() {
	t.v.mu.Lock()
	if t.stopped {
		t.v.mu.Unlock()
		return
	}
	now := t.v.Now()
	t.ev = t.v.scheduleLocked(t.d, t.fire)
	t.v.unlockChanged()
	t.v.handoff.Store(true)
	select {
	case t.ch <- now:
	default:
	}
}

func (t *vticker) C() <-chan time.Time { return t.ch }

func (t *vticker) Stop() {
	t.v.mu.Lock()
	defer t.v.unlockChanged()
	t.stopped = true
	t.v.sched.Cancel(t.ev)
}
