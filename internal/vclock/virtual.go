package vclock

import (
	"math/bits"
	goruntime "runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dagmutex/internal/sched"
)

// Virtual is the deterministic clock: time is a number that moves only
// when Advance, Run or Drain says so, and everything scheduled on the
// clock (AfterFunc timers and Every chains, a simulation's events) fires
// as ordered events on the goroutine doing the advancing. The event
// queue is internal/sched's Timeline, with one tick per nanosecond — the
// discrete event core and the wall-clock surface are the same machine.
//
// Ordering is total and reproducible: events fire in (time, arming order)
// — two events due at the same instant fire in the order they were armed,
// every run, however and by whichever goroutine each was armed.
//
// Concurrency model. The clock itself is safe for concurrent use (any
// goroutine may read Now or arm, stop and reset AfterFunc timers), but
// virtual time advances single-threadedly: exactly one goroutine, the
// clock's owner — the test, or the simulator's loop — calls
// Advance/Run/Drain, and event callbacks run synchronously on it.
//
// There is one queue, and only the owner touches it: Arm and ArmSlot push
// onto it directly, so only the owner may call them (from an event
// callback, or between advances). The queue holds only each event's time
// and a slot number, 16 bytes with no pointer in them; the event itself
// (callback, timer, arming) waits in that slot of a table beside the
// queue, which the owner fills when it queues an event and frees when
// the event is popped or swept out. ArmSlot hands the slot to its caller
// and, when the event fires, to the callback, so a caller can keep what
// the event carries by value in a table of its own indexed by the same
// slot (the simulator's network does). The table follows the pending
// set: it doubles when full, and shrinks to a size 2^k once the queue has
// stayed under a quarter of it for 2^k/2 events fired and every slot in
// use is below it — which they come to be, because the lowest free slots
// are handed out first (see lookBack). AfterFunc timers may be armed
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
// ones, so a Reset loop grows neither. Pending is exact, and the owner's
// to call: it collects the inbox and reads the queue.
//
// Other goroutines are not accounted for, but they are given a turn:
// Advance, Run and Drain each spend one blind round of scheduler yields
// on entry and one before they return, so whatever the caller set going
// before advancing, or an event callback started on another goroutine,
// has had its turn by the time the caller looks. Between two events the
// owner spends nothing: a callback is complete when it returns.
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

	// The owner's: the queue of slot numbers and the table of slots they
	// name; the free slots, on one chain per range of slot numbers
	// [2^(k-1), 2^k) (chain k; chain 0 is slot 0), threaded through the
	// table (free[k] is the first one plus one, each free slot's gen the
	// next one's, 0 ending the chain), with a bit per non-empty chain in
	// spare and each chain's length in nfree; the queue's length at the
	// last look back, and per table size 2^k how many events in a row have
	// fired with the queue under 2^k/4 (see lookBack); how many posts it
	// has taken off the inbox, how many of its events belong to no timer
	// (Arm, ArmSlot), and how many events fired.
	queue sched.Timeline[uint32]
	slots []event
	free  [64]uint32
	nfree [64]int
	spare uint64
	seen  int
	quiet [64]int
	taken uint64
	plain int
	fired uint64

	// yieldRounds counts blind yield rounds, for the settle-rule test.
	yieldRounds atomic.Uint64
}

// event is one queued callback: fire, or for an ArmSlot event slot,
// which is handed the slot the event held. A timer's carries the timer
// and the state its arming set, and is withdrawn once the timer has left
// that state. In a free slot of the table, gen links the next free slot
// (see free).
type event struct {
	fire func()
	slot func(uint32)
	t    *vtimer // nil: an Arm or an ArmSlot, never withdrawn
	gen  uint64
}

func withdrawn(e event) bool { return e.t != nil && e.t.state.Load() != e.gen }

// slotStep is the size of a clock's first table: it holds the pending set
// of a thousand-node simulation (bench's sim_scale peaks below 512
// events), so the table costs such a run one allocation on the way up.
// minSlots is the smallest table a shrink leaves, and lookEvery how many
// events fire between looks at the queue's length.
const (
	slotStep  = 512
	minSlots  = 64
	lookEvery = minSlots / 2
)

// hold takes a free slot from the lowest range that has one, for an event
// about to be queued; the caller doubles the table first when none is
// free. Owner only.
func (v *Virtual) hold() uint32 {
	k := bits.TrailingZeros64(v.spare) & 63
	s := v.free[k] - 1
	v.free[k] = uint32(v.slots[s].gen)
	if v.nfree[k]--; v.nfree[k] == 0 {
		v.spare &^= 1 << k
	}
	return s
}

// release puts slot s, emptied, on its range's free chain.
func (v *Virtual) release(s uint32) {
	k := bits.Len32(s) & 63
	v.slots[s] = event{gen: uint64(v.free[k])}
	v.free[k] = s + 1
	v.spare |= 1 << k
	v.nfree[k]++
}

// take empties slot s and returns the event it held. Owner only.
func (v *Virtual) take(s uint32) event {
	e := v.slots[s]
	v.release(s)
	return e
}

// resize moves the table to n slots, a power of two: twice as many, the
// new ones free, or fewer, when every slot from n on is free — whole
// ranges, whose chains are dropped with them. A table that grows was
// full, so no size below it has been quiet. The queue holds no more
// events than the table, so it keeps no idle array of more than twice as
// many entries (Timeline.Trim).
func (v *Virtual) resize(n int) {
	old := v.slots
	v.slots = make([]event, n)
	copy(v.slots, old)
	for k := bits.Len(uint(n)); k < len(v.free); k++ {
		v.free[k], v.nfree[k] = 0, 0
		v.spare &^= 1 << k
	}
	for s := n - 1; s >= len(old); s-- {
		v.release(uint32(s))
	}
	if n > len(old) {
		clear(v.quiet[:])
	}
	v.queue.Trim(2 * n)
}

// lookBack runs every lookEvery events fired. It shrinks the table to the
// smallest size 2^k, down to minSlots, that the queue has stayed under a
// quarter of for 2^k/2 events in a row, and that holds every slot in use:
// the ranges above it must be free. Free slots are handed out lowest
// first, so the events queued since the pending set fell have moved down
// out of those ranges. A size that the pending set reaches a quarter of
// between such stretches — a fill and drain loop — is never chosen, so
// shrinking never trades off against growing back.
//
// The queue is looked at, not watched: lookEvery events count as quiet
// for a size when the queue was under its quarter at both looks. A pop
// takes one event off, so the queue held at most lookEvery more than the
// second look in between, which a shrunk table still holds; and a
// stretch that only drains, the tail of a fill and drain loop, is under a
// quarter of 2^k for 2^k/4 events, half of what a shrink to 2^k needs.
func (v *Virtual) lookBack() {
	seen := max(v.seen, v.queue.Len())
	v.seen = v.queue.Len()
	top := bits.Len(uint(len(v.slots))) - 1 // the table holds 2^top slots
	n, above := len(v.slots), true          // above: the slots from 2^k on are free
	for k := top - 1; k >= bits.Len(minSlots)-1; k-- {
		if seen < 1<<k/4 {
			v.quiet[k] += lookEvery
		} else {
			v.quiet[k] = 0
		}
		if above = above && v.nfree[k+1] == 1<<k; above && v.quiet[k] >= 1<<k/2 {
			n = 1 << k
		}
	}
	if n < len(v.slots) {
		v.resize(n)
	}
}

// sweep takes the withdrawn events off the queue and frees their slots.
// Owner only.
func (v *Virtual) sweep() {
	v.queue.Cancel(func(s uint32) bool {
		if !withdrawn(v.slots[s]) {
			return false
		}
		v.take(s)
		return true
	})
}

// posted is an inbox entry: an event and when it is due.
type posted struct {
	at sched.Time
	ev event
}

// settleYields is how many scheduler yields one settle round spends
// letting other goroutines run.
const settleYields = 16

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

// Arm schedules fn to run once, d from now: AfterFunc without a handle or
// a lock, for the owner only (see the concurrency model) and for an event
// that is never withdrawn. Any other caller must use AfterFunc.
func (v *Virtual) Arm(d time.Duration, fn func()) { v.arm(d, event{fire: fn}) }

// ArmSlot is Arm for a callback that is handed the event's slot: it
// returns the slot the event holds until it fires, and fn is called with
// it. The slot is free again by then, so fn must read what its caller
// keeps for the slot before it arms anything. Slots are below Slots.
// Owner only.
func (v *Virtual) ArmSlot(d time.Duration, fn func(slot uint32)) uint32 {
	return v.arm(d, event{slot: fn})
}

// arm queues e, d from now, in a slot of the table, and returns the slot.
func (v *Virtual) arm(d time.Duration, e event) uint32 {
	v.collect()
	v.plain++
	if v.spare == 0 {
		v.resize(max(2*len(v.slots), slotStep))
	}
	s := v.hold()
	v.slots[s] = e
	v.queue.Push(v.due(d), s)
	return s
}

// Slots reports the size of the slot table: every slot ArmSlot hands out
// is below it. It grows and shrinks with the pending set. Owner only.
func (v *Virtual) Slots() int { return len(v.slots) }

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
		if v.spare == 0 {
			v.resize(max(2*len(v.slots), slotStep))
		}
		s := v.hold()
		v.slots[s] = p.ev
		v.queue.Push(max(p.at, now), s)
	}
	clear(v.inbox)
	v.inbox = v.inbox[:0]
	v.taken = v.posts.Load()
	if v.queue.Len() > 2*(v.plain+int(v.timers.Load())) {
		v.sweep()
	}
	v.mu.Unlock()
}

// settle is one blind round of scheduler yields: a turn for the other
// goroutines, which the clock does not track.
func (v *Virtual) settle() {
	v.yieldRounds.Add(1)
	for i := 0; i < settleYields; i++ {
		goruntime.Gosched()
	}
}

// popDue removes the earliest live event due at or before target, frees
// its slot, moves the clock to it and returns the event and the slot it
// held; false when nothing is due by then. Owner only. A timer's event
// fires only if it claims the arming it was queued for, and is dropped
// otherwise, even when due after now: if nothing live follows it, the
// clock stays where it is, and the emptied queue takes the pushes after
// it at any time.
func (v *Virtual) popDue(target sched.Time) (event, uint32, bool) {
	v.collect()
	for {
		at, s, ok := v.queue.PopDue(target)
		if !ok {
			return event{}, 0, false
		}
		e := v.take(s)
		switch {
		case e.t == nil:
			v.plain--
		case e.t.state.CompareAndSwap(e.gen, e.gen+1):
			v.timers.Add(-1)
		default:
			continue
		}
		v.now.Store(int64(at))
		if v.fired++; v.fired%lookEvery == 0 {
			v.lookBack()
		}
		return e, s, true
	}
}

// Advance moves virtual time forward by d, firing every event due in the
// window in deterministic order, and settles on entry and before it
// returns (see the concurrency model).
func (v *Virtual) Advance(d time.Duration) {
	if d < 0 {
		panic("vclock: negative advance")
	}
	target := sched.Time(v.now.Load() + int64(d))
	v.settle()
	v.fireDue(target, ^uint64(0))
	v.now.Store(int64(target))
	v.settle()
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
	fired = v.fireDue(never, limit)
	v.settle()
	return fired, v.Pending() == 0
}

// fireDue fires the events due at or before target, in order, until none
// is left or limit have fired, and reports how many fired. Owner only.
func (v *Virtual) fireDue(target sched.Time, limit uint64) (fired uint64) {
	for ; fired < limit; fired++ {
		e, s, ok := v.popDue(target)
		if !ok {
			break
		}
		if e.slot != nil {
			e.slot(s)
		} else {
			e.fire()
		}
	}
	return fired
}

// AfterFunc schedules fn to run once, d from now, on the advancing
// goroutine. The returned Timer's Stop/Reset control the scheduling. Any
// goroutine may call it.
func (v *Virtual) AfterFunc(d time.Duration, fn func()) Timer {
	t := &vtimer{v: v, fire: fn}
	t.Reset(d)
	return t
}

// vtimer is one AfterFunc timer. fire is its callback, bound once, so
// re-arming allocates nothing. state counts armings: odd while one is
// pending, one more once it fires or is stopped, the next odd number when
// the timer is armed again.
type vtimer struct {
	v     *Virtual
	fire  func()
	state atomic.Uint64
}

// Reset starts a new arming, d from now, withdrawing a pending one, and
// reports whether there was one.
func (t *vtimer) Reset(d time.Duration) bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
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
