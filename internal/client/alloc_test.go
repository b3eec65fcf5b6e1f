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

// runBackend is noopBackend with the run capability over one lock domain:
// every marked acquire is answered with a run that never ends.
type runBackend struct{ noopBackend }

func (runBackend) Shards() int { return 1 }
func (runBackend) AcquireRun(context.Context, string) (uint64, time.Time, int, error) {
	return 1, time.Time{}, 1 << 30, nil
}
func (runBackend) ReleaseRun(string, uint64, int, bool) error { return nil }

// TestAllocBudgetClientRunHandoff: inside a run, a release that passes
// the next fence to a waiting caller of the same connection allocates
// nothing — no frame, no pending entry, no timer — and neither does the
// waiter's side of it. Three callers rotate on one key, or on three keys
// of one shard (two never form a crowd: see markAt); the measured one's
// cycle spans three handoffs.
func TestAllocBudgetClientRunHandoff(t *testing.T) {
	for _, tc := range []struct {
		name string
		keys [3]string // the measured caller's, then the other two's
	}{
		{"one-key", [3]string{"hot", "hot", "hot"}},
		{"one-shard", [3]string{"a", "b", "c"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gw, err := transport.NewClientGateway("", runBackend{})
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()
			c, err := Dial(gw.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ctx, stop := context.WithCancel(context.Background())
			cycle := func(key string) bool {
				h, err := c.Acquire(ctx, key)
				if err != nil {
					return false
				}
				return c.ReleaseHold(h) == nil
			}
			others := make(chan struct{}, 2)
			for _, key := range tc.keys[1:] {
				go func() {
					for cycle(key) {
					}
					others <- struct{}{}
				}()
			}
			defer func() {
				stop()
				_ = c.Close()
				<-others
				<-others
			}()
			inRun := func() bool {
				c.mu.Lock()
				defer c.mu.Unlock()
				l := c.lanes[c.laneOf(tc.keys[0])]
				return l != nil && l.held && l.left() > 1<<20
			}
			for deadline := time.Now().Add(10 * time.Second); !inRun(); {
				if !cycle(tc.keys[0]) || time.Now().After(deadline) {
					t.Fatal("the three callers never got a run")
				}
			}
			for i := 0; i < 100; i++ {
				cycle(tc.keys[0])
			}
			// A release that happens to find the queue empty ends the run, and
			// the next crowd orders another: that path is pooled too, so the
			// bound holds whether or not all 1000 cycles fall inside one run.
			if avg := testing.AllocsPerRun(1000, func() { cycle(tc.keys[0]) }); avg != 0 {
				t.Fatalf("a cycle of local handoffs = %.2f allocs/op, want 0", avg)
			} else {
				t.Logf("%.2f allocs/op", avg)
			}
		})
	}
}
