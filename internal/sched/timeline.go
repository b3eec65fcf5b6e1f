package sched

import (
	"fmt"
	"math/bits"
)

// Timeline is the handle-less event queue: what a simulation whose every
// event is armed and fired by one goroutine runs on. It fires in the same
// (time, scheduling order) as Scheduler, but nothing on it can be
// cancelled, so an event needs no slot, no handle and no sequence
// comparison — arming is an append and firing is a read.
//
// The queue is a radix (monotone) heap: events never fire before the last
// one popped, so an event due at t lives in bucket bits.Len64(t ^ last) —
// the position of the highest bit in which t differs from the last time
// popped. Bucket 0 holds the events due exactly then and is a FIFO;
// bucket i's times are all below bucket i+1's. When bucket 0 runs dry the
// lowest occupied bucket is spread over the buckets below it, relative to
// its own earliest time, which becomes the new last. Every move takes an
// event to a strictly lower bucket and keeps events of one time in the
// order they were pushed (they always share a bucket), which is why ties
// fire in scheduling order without ever comparing a sequence number.
//
// The zero value is an empty timeline at time zero. Once the buckets have
// grown to a run's high-water mark, Push and Pop allocate nothing.
type Timeline struct {
	last     Time     // time of the last event popped: no later push is earlier
	n        int      // events pending
	head     int      // bucket 0's read index
	occupied uint64   // bit i set: bucket i holds events
	mins     [64]Time // per occupied bucket, its earliest time
	buckets  [64][]timelineEvent
}

// timelineEvent is one pending event. seq is the caller's: a Timeline
// merged with another queue (vclock's) hands it back for the head event so
// a tie on time across the two queues can be broken; the timeline itself
// never looks at it.
type timelineEvent struct {
	at   Time
	seq  uint64
	fire func()
}

// Len reports the number of pending events.
func (t *Timeline) Len() int { return t.n }

// Push schedules fn at time at, which must not be before the last event
// popped: like Scheduler.AtEvent, scheduling in the past panics, since it
// would silently corrupt causality.
func (t *Timeline) Push(at Time, seq uint64, fn func()) {
	if at < t.last {
		panic(fmt.Sprintf("sched: scheduling at %d before the last event fired, at %d", at, t.last))
	}
	t.n++
	t.put(timelineEvent{at: at, seq: seq, fire: fn})
}

// put files e under the current last.
func (t *Timeline) put(e timelineEvent) {
	i := bits.Len64(uint64(e.at ^ t.last)) // at most 63: times are not negative
	if bit := uint64(1) << i; t.occupied&bit == 0 {
		t.occupied |= bit
		t.mins[i] = e.at
	} else if e.at < t.mins[i] {
		t.mins[i] = e.at
	}
	t.buckets[i] = append(t.buckets[i], e)
}

// NextAt reports the earliest pending event's time, or false when the
// timeline is empty.
func (t *Timeline) NextAt() (Time, bool) {
	if t.occupied == 0 {
		return 0, false
	}
	return t.mins[bits.TrailingZeros64(t.occupied)], true
}

// refill spreads the lowest occupied bucket over the ones below it, which
// are empty, so that bucket 0 holds the earliest events. The timeline must
// not be empty, and the caller must be about to fire an event at or before
// the time NextAt reports: it becomes the new last.
func (t *Timeline) refill() {
	i := bits.TrailingZeros64(t.occupied)
	t.occupied &^= 1 << i
	t.last = t.mins[i]
	b := t.buckets[i]
	for _, e := range b {
		t.put(e)
	}
	clear(b) // drop the callback references
	t.buckets[i] = b[:0]
}

// NextSeq returns the sequence number the earliest pending event was
// pushed with. The timeline must not be empty, and like Pop it commits the
// caller to fire nothing earlier than that event's time.
func (t *Timeline) NextSeq() uint64 {
	if t.occupied&1 == 0 {
		t.refill()
	}
	return t.buckets[0][t.head].seq
}

// Pop removes the earliest pending event — of several due at the same
// time, the first pushed — and returns its time and callback. The
// timeline must not be empty.
func (t *Timeline) Pop() (Time, func()) {
	if t.occupied&1 == 0 {
		// The common case in a sparse stretch: the lowest bucket holds one
		// event, which fires from where it is.
		i := bits.TrailingZeros64(t.occupied)
		if b := t.buckets[i]; len(b) == 1 {
			t.last = b[0].at
			fn := b[0].fire
			b[0].fire = nil
			t.buckets[i] = b[:0]
			t.occupied &^= 1 << i
			t.n--
			return t.last, fn
		}
		t.refill()
	}
	b := t.buckets[0]
	fn := b[t.head].fire
	b[t.head].fire = nil
	t.n--
	if t.head++; t.head == len(b) {
		t.head, t.buckets[0] = 0, b[:0]
		t.occupied &^= 1
	}
	return t.last, fn
}
