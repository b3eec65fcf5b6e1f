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
	"slices"
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
// Each bucket owns a small array, of at most ownCap entries, that it
// files into for good. A bucket that outgrows it borrows a larger array
// from a pool the buckets share, and gives it back when it empties. That
// matters at a carry: each time a high bit of the time moves on, the
// whole pending set passes through one bucket, a different one for each
// bit, and with arrays of their own each such bucket would keep a
// pending-set-sized array for good; pooled, the next bucket to overflow
// takes it. The pool gives out the smallest array that fits and makes
// one, twice the size needed, only when none does; it drops only what the
// owner trims (Trim). So the timeline's arrays follow what is pending at
// once, not the sum of what each bucket ever held, and each bucket's
// entries stay one contiguous array.
//
// The zero value is an empty timeline at time zero. Once the arrays have
// grown to a run's high-water mark, Push, Pop and Cancel allocate nothing.
type Timeline[E any] struct {
	last     Time     // time of the last event popped: no later push is earlier
	n        int      // events pending
	head     int      // bucket 0's read index
	occupied uint64   // bit i set: bucket i holds events
	room     [64]Time // per bucket, never minus its earliest time; 0 when empty
	buckets  [64][]entry[E]
	// own is each bucket's own array; buckets[i] is own[i] unless bucket
	// i borrowed a larger one from pool, which holds the idle ones, none
	// of more than limit entries when limit is set (Trim).
	own   [64][]entry[E]
	pool  [][]entry[E]
	limit int
}

// ownCap is the most entries a bucket's own array holds.
const ownCap = 16

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
	i := t.bucket(at)
	if b := t.buckets[i]; len(b) == cap(b) {
		t.grow(i)
	}
	t.put(i, entry[E]{at: at, ev: ev})
}

// bucket is where an event due at at is filed under the current last.
func (t *Timeline[E]) bucket(at Time) int {
	return bits.Len64(uint64(at ^ t.last)) // at most 63: times are not negative
}

// put files e in bucket i, which has room for it: the callers grow a full
// bucket first, so that put stays small enough to inline.
func (t *Timeline[E]) put(i int, e entry[E]) {
	t.occupied |= 1 << i
	t.room[i] = max(t.room[i], never-e.at)
	t.buckets[i] = append(t.buckets[i], e)
}

// grow gives full bucket i room for one more entry: a larger own array
// up to ownCap, and past it the smallest pooled array that fits, or a new
// one twice the size. A borrowed array it outgrew goes back to the pool.
func (t *Timeline[E]) grow(i int) {
	b := t.buckets[i]
	need := len(b) + 1
	if need <= ownCap {
		o := append(make([]entry[E], 0, min(max(2*len(b), 4), ownCap)), b...)
		t.own[i], t.buckets[i] = o, o
		return
	}
	best := -1
	for k, p := range t.pool {
		if cap(p) >= need && (best < 0 || cap(p) < cap(t.pool[best])) {
			best = k
		}
	}
	var nb []entry[E]
	if best < 0 {
		nb = make([]entry[E], 0, 2*len(b))
	} else {
		last := len(t.pool) - 1
		nb, t.pool[best], t.pool[last] = t.pool[best], t.pool[last], nil
		t.pool = t.pool[:last]
	}
	t.buckets[i] = append(nb, b...)
	clear(b) // drop the events' references
	if cap(b) > ownCap {
		t.lend(b)
	}
}

// empty marks bucket i empty, its entries already cleared, and gives a
// borrowed array back to the pool.
func (t *Timeline[E]) empty(i int) {
	t.occupied &^= 1 << i
	t.room[i] = 0
	if b := t.buckets[i]; cap(b) > ownCap {
		t.lend(b)
		t.buckets[i] = t.own[i][:0]
	} else {
		t.buckets[i] = b[:0]
	}
}

// Trim drops the idle arrays that hold more than limit entries, now and
// as they are given back, until the next Trim: for an owner that knows
// its pending set stays under limit/2 — a bucket array is at most twice
// what it holds — so the arrays a past peak needed are given back. The
// owner chooses when; trimming on every dip would make them again on
// every rise.
func (t *Timeline[E]) Trim(limit int) {
	t.limit = limit
	t.pool = slices.DeleteFunc(t.pool, func(b []entry[E]) bool { return cap(b) > limit })
}

// lend puts b, emptied, in the pool, unless it is larger than Trim allows.
func (t *Timeline[E]) lend(b []entry[E]) {
	if t.limit == 0 || cap(b) <= t.limit {
		t.pool = append(t.pool, b[:0])
	}
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
			t.empty(i)
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
		t.head = 0
		t.empty(0)
	}
	return t.last, ev, true
}

// refill spreads bucket i, the lowest occupied one, over the ones below
// it, which are empty, so that bucket 0 holds the earliest events. The
// caller must be about to pop: the earliest time becomes the new last.
func (t *Timeline[E]) refill(i int) {
	t.last = never - t.room[i]
	b := t.buckets[i]
	for _, e := range b {
		j := t.bucket(e.at)
		if b := t.buckets[j]; len(b) == cap(b) {
			t.grow(j)
		}
		t.put(j, e)
	}
	clear(b) // drop the events' references
	t.empty(i)
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
			t.empty(i)
		}
	}
}
