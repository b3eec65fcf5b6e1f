// Package sched holds the deterministic event queue under
// internal/vclock's Virtual clock, which supplies the time (one tick = one
// nanosecond), the locking and the withdrawal of timers. Its Timeline
// fires in (time, push order), every run: the total order that keeps trace
// diffs byte-stable. The package is a leaf so vclock and sim can share
// Time and Hop without an import cycle (sim re-exports them as aliases).
package sched

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a point in virtual time, in ticks.
type Time int64

// Hop is the conventional per-message latency used by experiments, chosen
// so that sub-hop tie-breaking adjustments (FIFO clamping) never add up to
// a full hop.
const Hop Time = 1000

// Timeline is the event queue: values of type E, each due at a Time, that
// one goroutine pushes and pops. Nothing on it is cancelled one by one: a
// caller that withdraws events marks them itself, skips them as they come
// up and sweeps them out with Cancel. So an event needs no handle and no
// sequence number — pushing is an append and popping is a read.
//
// An entry is the event's time and its value, and is moved whole each
// time it is filed, so E is best small and pointer-free: the virtual
// clock keeps each event's callback in a table of its own and queues only
// the slot number, a uint32, which makes an entry 16 bytes with nothing
// in it for the garbage collector to scan.
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
// Each bucket keeps its headroom, never minus its earliest time, which is
// 0 for an empty bucket: filing an event raises it with a max and sets
// the bucket's bit, so it takes no branch on whether the bucket was empty
// or the event is its earliest. Every path that empties a bucket puts its
// headroom back to 0.
//
// The zero value is an empty timeline at time zero. Once the buckets have
// grown to a run's high-water mark, Push, Pop and Cancel allocate nothing.
type Timeline[E any] struct {
	last     Time     // time of the last event popped: no later push is earlier
	n        int      // events pending
	head     int      // bucket 0's read index
	occupied uint64   // bit i set: bucket i holds events
	room     [64]Time // per bucket, never minus its earliest time; 0 when empty
	buckets  [64][]entry[E]
}

// never is later than any event: a bucket's headroom is measured from it.
const never = Time(math.MaxInt64)

// entry is one pending event.
type entry[E any] struct {
	at Time
	ev E
}

// Len reports the number of pending events.
func (t *Timeline[E]) Len() int { return t.n }

// Push schedules ev at time at. While events are pending, at must not be
// before the last event popped: that would silently corrupt causality, so
// it panics. An empty timeline has nothing a push could overtake: it
// starts again from time zero, so neither this push nor the ones after it
// are held to the times popped before.
func (t *Timeline[E]) Push(at Time, ev E) {
	if t.n == 0 {
		t.last = 0
	} else if at < t.last {
		panic(fmt.Sprintf("sched: scheduling at %d before the last event fired, at %d", at, t.last))
	}
	t.n++
	t.put(entry[E]{at: at, ev: ev})
}

// put files e under the current last.
func (t *Timeline[E]) put(e entry[E]) {
	i := bits.Len64(uint64(e.at ^ t.last)) // at most 63: times are not negative
	t.occupied |= 1 << i
	t.room[i] = max(t.room[i], never-e.at)
	t.buckets[i] = append(t.buckets[i], e)
}

// NextAt reports the earliest pending event's time, or false when the
// timeline is empty.
func (t *Timeline[E]) NextAt() (Time, bool) {
	if t.occupied == 0 {
		return 0, false
	}
	return never - t.room[bits.TrailingZeros64(t.occupied)], true
}

// Pop removes the earliest pending event — of several due at the same
// time, the first pushed — and returns its time and value. The timeline
// must not be empty.
func (t *Timeline[E]) Pop() (Time, E) {
	at, ev, ok := t.PopDue(never)
	if !ok {
		panic("sched: Pop on an empty timeline")
	}
	return at, ev
}

// PopDue is Pop if the earliest pending event is due at or before target,
// and otherwise reports false and leaves the timeline as it was: NextAt
// and Pop in one, finding the earliest bucket once.
func (t *Timeline[E]) PopDue(target Time) (Time, E, bool) {
	i := bits.TrailingZeros64(t.occupied)
	if t.occupied == 0 || never-t.room[i] > target {
		var none E
		return 0, none, false
	}
	if i != 0 {
		// The common case in a sparse stretch: the lowest bucket holds one
		// event, which fires from where it is.
		if b := t.buckets[i]; len(b) == 1 {
			t.last = b[0].at
			ev := b[0].ev
			b[0] = entry[E]{}
			t.buckets[i] = b[:0]
			t.occupied &^= 1 << i
			t.room[i] = 0
			t.n--
			return t.last, ev, true
		}
		t.refill(i)
	}
	b := t.buckets[0]
	ev := b[t.head].ev
	b[t.head] = entry[E]{}
	t.n--
	if t.head++; t.head == len(b) {
		t.head, t.buckets[0] = 0, b[:0]
		t.occupied &^= 1
		t.room[0] = 0
	}
	return t.last, ev, true
}

// refill spreads bucket i, the lowest occupied one, over the ones below
// it, which are empty, so that bucket 0 holds the earliest events. The
// caller must be about to pop: the earliest time becomes the new last.
func (t *Timeline[E]) refill(i int) {
	t.occupied &^= 1 << i
	t.last = never - t.room[i]
	t.room[i] = 0
	b := t.buckets[i]
	for _, e := range b {
		t.put(e)
	}
	clear(b) // drop the events' references
	t.buckets[i] = b[:0]
}

// Cancel removes, at once, every pending event withdrawn reports true
// for, and keeps the rest in their order: how a caller that withdraws
// events lazily compacts the queue. withdrawn is called exactly once per
// pending event, so it may also release what the event holds.
func (t *Timeline[E]) Cancel(withdrawn func(E) bool) {
	for occ := t.occupied; occ != 0; occ &= occ - 1 {
		i := bits.TrailingZeros64(occ)
		b, from := t.buckets[i], 0
		if i == 0 {
			from, t.head = t.head, 0
		}
		kept, room := b[:0], Time(0)
		for _, e := range b[from:] {
			if withdrawn(e.ev) {
				continue
			}
			room = max(room, never-e.at)
			kept = append(kept, e)
		}
		t.n -= len(b) - from - len(kept)
		clear(b[len(kept):])
		t.buckets[i], t.room[i] = kept, room
		if len(kept) == 0 {
			t.occupied &^= 1 << i
		}
	}
}
