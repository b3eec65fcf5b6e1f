//go:build !race

package sched

import (
	"math/rand"
	"testing"
)

// TestAllocBudgetTimelinePushPop: once its buckets have reached their
// high-water mark, the timeline pushes, cancels and pops without
// allocating.
func TestAllocBudgetTimelinePushPop(t *testing.T) {
	var tl Timeline[int]
	odd := func(i int) bool { return i%2 == 1 }
	now := Time(0)
	round := func() {
		for i := 0; i < 64; i++ {
			tl.Push(now+Time(1+i%7)<<uint(i%20), i)
		}
		tl.Cancel(odd)
		for tl.Len() > 0 {
			now, _ = tl.Pop()
		}
	}
	for i := 0; i < 64; i++ { // visit every bucket depth the rounds will
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Errorf("push/cancel/pop round = %.2f allocs, want 0", avg)
	}
}

// TestAllocBudgetSchedulerPushPopCancel: used the way the virtual clock
// uses it — callbacks that schedule their successors as they fire, and a
// sweep of withdrawn events while the events of one instant are only
// partly fired — the timeline fires the right events and allocates
// nothing once its buckets have reached their high-water mark.
func TestAllocBudgetSchedulerPushPopCancel(t *testing.T) {
	type event struct {
		id   int
		fire func(id int)
	}
	var tl Timeline[event]
	now, fired := Time(0), 0
	var fire func(id int)
	fire = func(id int) {
		fired++
		if id < 32 {
			tl.Push(now+Time(1+id%5), event{id: id + 32, fire: fire})
		}
	}
	pop := func() {
		var e event
		now, e = tl.Pop()
		e.fire(e.id)
	}
	withdrawn := func(e event) bool { return e.id%4 == 3 }
	round := func() {
		for i := 0; i < 32; i++ {
			tl.Push(now+1, event{id: i, fire: fire})
		}
		for i := 0; i < 8; i++ {
			pop()
		}
		tl.Cancel(withdrawn) // 8 of the 32 fired, 8 successors pending
		for tl.Len() > 0 {
			pop()
		}
	}
	round()
	// 8 fire before the sweep, which takes 2 of their 8 successors and 6
	// of the other 24; the 6 successors left, the 18 others and their 18
	// successors fire after it.
	if fired != 50 {
		t.Fatalf("fired %d events, want 8+6+18+18 = 50", fired)
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Errorf("push/pop/sweep round = %.2f allocs, want 0", avg)
	}
}

// TestTimelineCarryReusesArrays: a pending set of 200 events with
// think-time delays (exponential, mean 2^27 ticks) is carried across
// 2^29-tick boundaries. At each the whole set passes through the carry's
// bucket, a bucket never used before each time a higher bit moves on than
// ever did. Once warm, a carry allocates nothing: the next carry's bucket
// borrows the arrays the last one gave back. And the arrays stay within a
// few times the pending set plus each bucket's own array, however many
// bits have carried: when every bucket kept what it once held, they held
// 3019 entries of room here, 256 more for each new bit.
func TestTimelineCarryReusesArrays(t *testing.T) {
	const pending = 200
	rng := rand.New(rand.NewSource(1))
	var tl Timeline[int]
	delay := func() Time { return Time(rng.ExpFloat64() * (1 << 27)) }
	for i := range pending {
		tl.Push(delay(), i)
	}
	boundary := Time(0)
	carry := func() {
		boundary += 1 << 29
		for {
			at, _ := tl.NextAt()
			if at >= boundary {
				return
			}
			at, id := tl.Pop()
			tl.Push(at+delay(), id)
		}
	}
	for range 16 { // up to bit 33
		carry()
	}
	if avg := testing.AllocsPerRun(200, carry); avg != 0 { // up to bit 37
		t.Errorf("a carry across a 2^29 boundary = %.2f allocs, want 0", avg)
	}
	if tl.Len() != pending {
		t.Fatalf("%d events pending, want %d", tl.Len(), pending)
	}
	room := 0
	for i, b := range tl.buckets {
		room += cap(tl.own[i])
		if cap(b) > ownCap {
			room += cap(b)
		}
	}
	for _, b := range tl.pool {
		room += cap(b)
	}
	t.Logf("%d entries of room for %d pending events", room, pending)
	if limit := 4*pending + 64*ownCap; room > limit {
		t.Errorf("the arrays hold %d entries of room for %d pending events, want <= %d", room, pending, limit)
	}
}
