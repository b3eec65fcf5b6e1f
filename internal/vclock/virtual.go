package vclock

import (
	"fmt"
	goruntime "runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dagmutex/internal/sched"
)

// Virtual is the deterministic clock: time is a number that moves only
// when Advance, Step, Run or Drain says so, and everything scheduled on the
// clock (timers, tickers, AfterFunc chains, Sleeps, a simulation's events)
// fires as ordered events on the goroutine doing the advancing. The event
// queue is internal/sched's Timeline, with one tick per nanosecond — the
// discrete event core and the wall-clock surface are the same machine.
//
// Ordering is total and reproducible: events fire in (time, arming order)
// — two events due at the same instant fire in the order they were armed,
// every run, however and by whichever goroutine each was armed.
//
// Concurrency model. The clock itself is safe for concurrent use (any
// goroutine may read Now or arm, stop and reset timers), but virtual time
// advances single-threadedly: exactly one goroutine, the clock's owner —
// the test, or the simulator's loop — calls Advance/Step/Run/Drain, and
// event callbacks run synchronously on it.
//
// There is one queue, and only the owner touches it: Arm pushes onto it
// directly, so only the owner may call Arm (from an event callback, or
// between advances). Timers, tickers, AfterFunc and Sleep may be armed
// from any goroutine: they are posted to an inbox under the clock's lock,
// which the owner empties onto the queue, in posting order, before every
// Arm and every pop. So events fire in arming order with no sequence
// number, and the owner locks only when something was posted since it
// last looked: a run of Arm events alone (the simulator's) costs a queue
// pop and the callback per event.
//
// Stop and Reset withdraw lazily. A timer's state word counts its
// armings, and each queued event carries the value its arming set: the
// owner fires it only if it can move the word on from that value, so a
// timer fires at most once per arming. Withdrawn events are swept out of
// the inbox when it fills and off the queue when they outnumber the live
// ones, so a Reset loop grows neither. Pending and NextAt are exact, and
// the owner's to call: both collect the inbox and read the queue.
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

	mu         sync.Mutex
	inbox      []posted // armed off the owner, in arming order; guarded by mu
	inboxLimit int      // the inbox length that sweeps it; guarded by mu
	// posts counts the events ever posted to the inbox. It moves under mu;
	// the owner compares it with taken to learn, without the lock, whether
	// the inbox holds anything.
	posts  atomic.Uint64
	timers atomic.Int64 // armed timers: each has one live event queued

	// The owner's: the queue, how many posts it has taken off the inbox,
	// how many of its events belong to no timer (Arm, Sleep), and how many
	// events fired.
	queue sched.Timeline[event]
	taken uint64
	plain int
	fired uint64

	workers  atomic.Int64  // goroutines registered via Go
	idle     atomic.Int64  // registered workers currently parked in Block/Sleep
	activity atomic.Uint64 // bumped on park transitions; with posts, settle's stability check

	// handoff is set by an event that passed something to another
	// goroutine and cleared by the advancing goroutine when it spends the
	// yield round that pays for.
	handoff atomic.Bool
	// yieldRounds counts blind yield rounds, for the settle-rule tests.
	yieldRounds atomic.Uint64
}

// event is one queued callback. A timer's carries the timer and the state
// its arming set, and is withdrawn once the timer has left that state.
type event struct {
	fire func()
	t    *vtimer // nil: an Arm or a Sleep, never withdrawn
	gen  uint64
}

func withdrawn(e event) bool { return e.t != nil && e.t.state.Load() != e.gen }

// posted is an inbox entry: an event and when it is due.
type posted struct {
	at sched.Time
	ev event
}

// settleYields is how many scheduler yields one settle round spends
// letting woken goroutines run before re-checking the idle condition.
const settleYields = 16

// settleTimeout bounds how long Advance waits for registered workers to
// park again before declaring the configuration deadlocked.
const settleTimeout = 10 * time.Second

// never is the due time of nothing: later than any event.
const never = sched.Time(1)<<62 - 1

// NewVirtual returns a virtual clock at a fixed epoch (2000-01-01 UTC —
// arbitrary, non-zero so lease deadlines survive IsZero checks).
func NewVirtual() *Virtual {
	return &Virtual{base: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)}
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time { return v.base.Add(v.Elapsed()) }

// Since returns Now().Sub(t).
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Until returns t.Sub(Now()).
func (v *Virtual) Until(t time.Time) time.Duration { return t.Sub(v.Now()) }

// Elapsed returns how much virtual time has passed since the epoch.
func (v *Virtual) Elapsed() time.Duration { return time.Duration(v.now.Load()) }

// Pending reports the number of scheduled, not-yet-fired events. Owner
// only (see the concurrency model).
func (v *Virtual) Pending() int {
	v.collect()
	return v.plain + int(v.timers.Load())
}

// NextAt reports when the earliest pending event is due, or false when
// nothing is scheduled — the harness's deadlock probe: workload not done
// and nothing pending means the protocol lost a grant. Owner only.
func (v *Virtual) NextAt() (time.Time, bool) {
	if live := v.Pending(); v.queue.Len() > live {
		v.queue.Cancel(withdrawn) // the head may be an event that will not fire
	}
	at, ok := v.queue.NextAt()
	if !ok {
		return time.Time{}, false
	}
	return v.base.Add(time.Duration(at)), true
}

// Arm schedules fn to run once, d from now: AfterFunc without a handle or
// a lock, for the owner only (see the concurrency model) and for an event
// that is never withdrawn. Any other caller must use AfterFunc.
func (v *Virtual) Arm(d time.Duration, fn func()) {
	v.collect()
	v.plain++
	v.queue.Push(v.due(d), event{fire: fn})
}

// due is the queue time d from now; a negative d is now.
func (v *Virtual) due(d time.Duration) sched.Time {
	return sched.Time(v.now.Load() + int64(max(d, 0)))
}

// post puts e on the inbox, due d from now. An inbox at its limit is
// first swept of the events withdrawn since they were posted, and may
// then grow to twice what is left. Caller holds v.mu.
func (v *Virtual) post(d time.Duration, e event) {
	if len(v.inbox) >= v.inboxLimit {
		v.inbox = slices.DeleteFunc(v.inbox, func(p posted) bool { return withdrawn(p.ev) })
		v.inboxLimit = max(64, 2*len(v.inbox))
	}
	v.inbox = append(v.inbox, posted{at: v.due(d), ev: e})
	v.posts.Add(1)
}

// collect moves the inbox onto the queue, in posting order, dropping what
// was withdrawn meanwhile, and sweeps the queue once its withdrawn events
// outnumber the live ones. Owner only. It locks only when something was
// posted since it last ran, and inlines into Arm and popDue.
func (v *Virtual) collect() {
	if v.posts.Load() != v.taken {
		v.collectLocked()
	}
}

func (v *Virtual) collectLocked() {
	v.mu.Lock()
	// An event posted by a goroutine that read the time while the owner was
	// moving it is due in the past: it fires now.
	now := sched.Time(v.now.Load())
	for _, p := range v.inbox {
		if withdrawn(p.ev) {
			continue
		}
		if p.ev.t == nil {
			v.plain++
		}
		v.queue.Push(max(p.at, now), p.ev)
	}
	clear(v.inbox)
	v.inbox = v.inbox[:0]
	v.taken = v.posts.Load()
	if v.queue.Len() > 2*(v.plain+int(v.timers.Load())) {
		v.queue.Cancel(withdrawn)
	}
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
		gen := v.activity.Load() + v.posts.Load() // moves when a worker parks, wakes or arms a timer
		if v.idle.Load() >= v.workers.Load() {
			v.yield()
			if v.activity.Load()+v.posts.Load() == gen && v.idle.Load() >= v.workers.Load() {
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

// popDue removes the earliest live event due at or before target, moves
// the clock to it and returns its callback; false when nothing is due by
// then. Owner only. A timer's event fires only if it claims the arming it
// was queued for, and is dropped otherwise, even when due after now: if
// nothing live follows it, the clock stays where it is, and the emptied
// queue takes the pushes after it at any time.
func (v *Virtual) popDue(target sched.Time) (func(), bool) {
	v.collect()
	for {
		if at, ok := v.queue.NextAt(); !ok || at > target {
			return nil, false
		}
		at, e := v.queue.Pop()
		switch {
		case e.t == nil:
			v.plain--
		case e.t.state.CompareAndSwap(e.gen, e.gen+1):
			v.timers.Add(-1)
		default:
			continue
		}
		v.now.Store(int64(at))
		v.fired++
		return e.fire, true
	}
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
// clock at the horizon even when the queue drained earlier.
func (v *Virtual) Run(horizon time.Duration) (fired uint64) {
	before := v.fired
	v.Advance(horizon)
	return v.fired - before
}

// Drain fires pending events in order, whatever their time, until none
// remain or limit have fired, leaving the clock at the last event fired
// — a closed-loop simulation run to quiescence. It reports how many
// fired and whether the queue drained; the limit is the caller's guard
// against a run that never quiesces.
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
	v.post(d, event{fire: func() {
		// The sleeper is runnable from here on, whether or not it has been
		// scheduled yet: the waker takes it off the idle count, so settle
		// waits for it to park again or finish instead of racing it.
		v.idle.Add(-1)
		v.activity.Add(1)
		v.handoff.Store(true)
		close(done)
	}})
	// Parked from here on, and only once the wake-up is where the owner
	// looks for it: an owner that finds every worker idle finds the event.
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
	t.Reset(d)
	return t
}

// AfterFunc schedules fn to run once, d from now, on the advancing
// goroutine. The returned Timer's Stop/Reset control the scheduling; its
// C is nil, like time.AfterFunc's.
func (v *Virtual) AfterFunc(d time.Duration, fn func()) Timer {
	t := &vtimer{v: v, fire: fn}
	t.Reset(d)
	return t
}

// NewTicker returns a ticker firing every d of virtual time. Ticks a
// receiver misses are dropped (the channel holds one), like
// time.Ticker.
func (v *Virtual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("vclock: non-positive ticker interval")
	}
	t := &vticker{vtimer: vtimer{v: v, ch: make(chan time.Time, 1)}, d: d}
	t.fire = t.tick
	t.Reset(d)
	return t
}

// vtimer is one virtual timer. fire is its callback — the AfterFunc
// function itself, or send for a channel timer — bound once, so re-arming
// allocates nothing. state counts armings: odd while one is pending, one
// more once it fires or is stopped, the next odd number when the timer is
// armed again.
type vtimer struct {
	v     *Virtual
	ch    chan time.Time // cap 1; nil for AfterFunc timers
	fire  func()
	state atomic.Uint64
}

func (t *vtimer) C() <-chan time.Time { return t.ch }

func (t *vtimer) Reset(d time.Duration) bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	return t.armLocked(d)
}

// armLocked starts a new arming, d from now, withdrawing a pending one,
// and reports whether there was one. Caller holds v.mu.
func (t *vtimer) armLocked(d time.Duration) bool {
	s := t.state.Load()
	for !t.state.CompareAndSwap(s, s+1+s&1) { // the next odd number
		s = t.state.Load()
	}
	if s&1 == 0 {
		t.v.timers.Add(1)
	}
	t.v.post(d, event{fire: t.fire, t: t, gen: s + 1 + s&1})
	return s&1 == 1
}

func (t *vtimer) Stop() bool {
	for s := t.state.Load(); s&1 == 1; s = t.state.Load() {
		if t.state.CompareAndSwap(s, s+1) {
			t.v.timers.Add(-1)
			return true
		}
	}
	return false
}

// send is a channel timer's callback; it runs on the advancing goroutine,
// outside v.mu.
func (t *vtimer) send() {
	now := t.v.Now()
	t.v.handoff.Store(true)
	select {
	case t.ch <- now:
	default:
	}
}

// vticker is one virtual ticker: a timer each tick of which arms the next.
type vticker struct {
	vtimer
	d       time.Duration
	stopped bool // guarded by v.mu
}

func (t *vticker) tick() {
	t.v.mu.Lock()
	if t.stopped {
		t.v.mu.Unlock()
		return
	}
	t.armLocked(t.d)
	t.v.mu.Unlock()
	t.send()
}

func (t *vticker) Stop() {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	t.stopped = true
	t.vtimer.Stop()
}
