//go:build !race

package sim

import (
	"math/bits"
	"runtime"
	"testing"

	"dagmutex/internal/mutex"
)

// counter is an inert node that counts what it is handed.
type counter struct {
	id  mutex.ID
	got int
}

func (c *counter) ID() mutex.ID                          { return c.id }
func (c *counter) Request() error                        { return nil }
func (c *counter) Release() error                        { return nil }
func (c *counter) Storage() mutex.Storage                { return mutex.Storage{} }
func (c *counter) Deliver(mutex.ID, mutex.Message) error { c.got++; return nil }

// TestPendingDeliveriesAllocateNoObjectEach: 10 000 messages in flight at
// once — a broadcast's worth — and delivered cost the allocations of the
// tables growing to hold them (the clock's slots, the network's payloads,
// the queue's arrays), a few per doubling: O(log n), not one per message.
// A pending delivery is a value in a table, not a heap object.
func TestPendingDeliveriesAllocateNoObjectEach(t *testing.T) {
	const msgs = 10_000
	clk, net := newNet()
	dst := &counter{id: 2}
	net.Attach(&counter{id: 1})
	net.Attach(dst)
	var m mutex.Message = testMsg{tag: 1} // boxed once: the sends box nothing
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range msgs {
		net.Send(1, 2, m)
	}
	clk.Run()
	runtime.ReadMemStats(&after)
	if dst.got != msgs {
		t.Fatalf("delivered %d of %d", dst.got, msgs)
	}
	allocs := after.Mallocs - before.Mallocs
	limit := uint64(8 * bits.Len(msgs))
	t.Logf("%d allocations for %d deliveries in flight at once", allocs, msgs)
	if allocs > limit {
		t.Errorf("%d allocations for %d deliveries, want <= %d (8 per doubling)", allocs, msgs, limit)
	}
}
