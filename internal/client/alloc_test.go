//go:build !race

package client

import (
	"context"
	"testing"
	"time"

	"dagmutex/internal/transport"
)

// noopBackend grants at once: what remains is the client protocol itself.
type noopBackend struct{}

func (noopBackend) Acquire(context.Context, string) (uint64, time.Time, error) {
	return 1, time.Time{}, nil
}
func (noopBackend) TryAcquire(string) (uint64, time.Time, bool, error) {
	return 1, time.Time{}, true, nil
}
func (noopBackend) Release(string, uint64) error { return nil }

// TestAllocBudgetClientRoundTrip bounds the whole dialed-client path —
// Conn.Acquire and Conn.ReleaseHold against a ClientGateway over a real
// loopback socket, both ends' readers, writers, request tables and
// workers included — at 2 heap objects per acquire/release cycle. The
// steady state needs none: pending entries and member-side requests are
// recycled, frames are built in pooled buffers and decoded in place,
// resource names are interned. The budget leaves room for the runtime's
// own occasional allocations (a timer, a grown stack's bookkeeping), not
// for a per-frame object. Built only without -race: instrumentation
// allocates.
func TestAllocBudgetClientRoundTrip(t *testing.T) {
	gw, err := transport.NewClientGateway("", noopBackend{})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	c, err := Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	cycle := func() {
		h, err := c.Acquire(ctx, "res-0")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.ReleaseHold(h); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		cycle() // settle free lists, workers, frame pool and goroutine stacks
	}
	if avg := testing.AllocsPerRun(1000, cycle); avg > 2 {
		t.Fatalf("dialed acquire+release = %.2f allocs/op, want <= 2", avg)
	} else {
		t.Logf("%.2f allocs/op", avg)
	}
}
