// Package sched holds the deterministic event queues under
// internal/vclock's Virtual clock, which supplies the time (one tick = one
// nanosecond) and the locking: Scheduler, a cancellable queue for timers
// any goroutine may arm, stop and reset, and Timeline, a handle-less one
// for the events of a simulation (internal/sim) that only the advancing
// goroutine ever touches. The package is a leaf so vclock and sim can
// share Time and Hop without an import cycle — sim re-exports them as
// aliases, so experiment code keeps saying sim.Time.
//
// Both queues fire in (time, scheduling order): two events due at the
// same instant fire in the order they were armed, every run. That total
// order is what makes trace diffs byte-stable across runs.
//
// Scheduler is a binary heap of events held by value, sifted by hand on
// (at, seq). Every event occupies a slot that tracks its heap index, so
// Cancel removes it from the heap at once — Pending and NextAt are O(1)
// and exact, and a timer reset in a loop never grows the heap. Slots
// are recycled through a free list and carry a generation, which is
// what makes the Event handle a plain value: scheduling, firing and
// cancelling allocate nothing once the heap and slot slices have grown
// to the run's high-water mark.
package sched

import "fmt"

// Time is a point in virtual time, in ticks.
type Time int64

// Hop is the conventional per-message latency used by experiments, chosen
// so that sub-hop tie-breaking adjustments (FIFO clamping) never add up to
// a full hop.
const Hop Time = 1000

// event is a scheduled callback. seq breaks ties between events scheduled
// for the same instant: earlier-scheduled events fire first, which keeps
// runs deterministic.
type event struct {
	at   Time
	seq  uint64
	fire func()
	slot int32 // index into Scheduler.slots
}

func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// slot follows one pending event around the heap. gen is bumped when the
// event fires or is cancelled, so handles to a recycled slot go stale.
type slot struct {
	pos int32
	gen uint32
}

// Event is a cancellable handle to one scheduled callback, returned by
// AtEvent — what vclock's timers are built on. It is a value (slot plus
// generation); the zero Event refers to nothing.
type Event struct {
	slot int32
	gen  uint32
}

// Scheduler is a cancellable virtual-time event queue. The zero value is
// not usable; construct with NewScheduler.
type Scheduler struct {
	last  Time // time of the last event popped
	heap  []event
	slots []slot
	free  []int32 // recycled slot indices
	seq   uint64
}

// NewScheduler returns an empty scheduler at time zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Pending reports the number of scheduled, not-yet-fired events.
func (s *Scheduler) Pending() int { return len(s.heap) }

// Seq returns the sequence number of the event scheduled last: how many
// events have been scheduled so far.
func (s *Scheduler) Seq() uint64 { return s.seq }

// AtEvent schedules fn to fire at virtual time t and returns its handle.
// Scheduling before the last event popped is a programming error and
// panics, since it would silently corrupt causality.
func (s *Scheduler) AtEvent(t Time, fn func()) Event {
	if t < s.last {
		panic(fmt.Sprintf("sched: scheduling at %d before the last event fired, at %d", t, s.last))
	}
	var si int32
	if n := len(s.free); n > 0 {
		si = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		si = int32(len(s.slots))
		s.slots = append(s.slots, slot{gen: 1}) // gen 0 is the zero Event's
	}
	s.seq++
	s.heap = append(s.heap, event{})
	s.siftUp(len(s.heap)-1, event{at: t, seq: s.seq, fire: fn, slot: si})
	return Event{slot: si, gen: s.slots[si].gen}
}

// Cancel withdraws the event e refers to, removing it from the heap. It
// reports whether the cancellation took effect: false when the event
// already fired or was already cancelled. Cancelling a fired event is a
// no-op, exactly like time.Timer.Stop.
func (s *Scheduler) Cancel(e Event) bool {
	if e.gen == 0 || int(e.slot) >= len(s.slots) || s.slots[e.slot].gen != e.gen {
		return false
	}
	s.remove(int(s.slots[e.slot].pos))
	return true
}

// remove takes heap[i] out of the queue and retires its slot.
func (s *Scheduler) remove(i int) {
	si := s.heap[i].slot
	s.slots[si].gen++
	s.free = append(s.free, si)
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap[n] = event{} // drop the callback reference
	s.heap = s.heap[:n]
	if i == n {
		return
	}
	// Refill the hole with the former last event: it belongs below i
	// unless it sorts before i's parent.
	if i > 0 && last.before(&s.heap[(i-1)/2]) {
		s.siftUp(i, last)
	} else {
		s.siftDown(i, last)
	}
}

// place puts e at heap index i and points its slot there.
func (s *Scheduler) place(i int, e event) {
	s.heap[i] = e
	s.slots[e.slot].pos = int32(i)
}

// siftUp places e at the hole i or above it, moving later parents down.
func (s *Scheduler) siftUp(i int, e event) {
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&s.heap[p]) {
			break
		}
		s.place(i, s.heap[p])
		i = p
	}
	s.place(i, e)
}

// siftDown places e at the hole i or below it, moving earlier children up.
func (s *Scheduler) siftDown(i int, e event) {
	n := len(s.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s.heap[r].before(&s.heap[c]) {
			c = r
		}
		if !s.heap[c].before(&e) {
			break
		}
		s.place(i, s.heap[c])
		i = c
	}
	s.place(i, e)
}

// NextAt reports the earliest pending event's time, or false when the
// queue is empty.
func (s *Scheduler) NextAt() (Time, bool) {
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].at, true
}

// NextSeq returns the earliest pending event's sequence number: its
// ordinal among all events ever scheduled here. The queue must not be
// empty.
func (s *Scheduler) NextSeq() uint64 { return s.heap[0].seq }

// PopDue removes the earliest pending event scheduled at or before t and
// returns its callback — without running it, so a caller that guards the
// scheduler with a lock can release the lock before firing (vclock's
// callbacks re-enter the clock). It reports false when no event is due by
// t.
func (s *Scheduler) PopDue(t Time) (func(), bool) {
	if len(s.heap) == 0 || s.heap[0].at > t {
		return nil, false
	}
	s.last = s.heap[0].at
	fn := s.heap[0].fire
	s.remove(0)
	return fn, true
}
