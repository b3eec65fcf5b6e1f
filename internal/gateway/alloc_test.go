//go:build !race

package gateway

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"dagmutex/internal/client"
	"dagmutex/internal/transport"
)

// noopBackend grants at once: what remains is the two client-protocol
// hops and the gateway's routing between them.
type noopBackend struct{}

func (noopBackend) Acquire(context.Context, string) (uint64, time.Time, error) {
	return 1, time.Time{}, nil
}
func (noopBackend) TryAcquire(string) (uint64, time.Time, bool, error) {
	return 1, time.Time{}, true, nil
}
func (noopBackend) Release(string, uint64) error { return nil }

// runBackend is noopBackend with the run capability over one lock
// domain: every marked acquire is answered with a run that never ends,
// and counted.
type runBackend struct {
	noopBackend
	runs *atomic.Int64
}

func (runBackend) Shards() int { return 1 }
func (b runBackend) AcquireRun(context.Context, string) (uint64, time.Time, int, error) {
	b.runs.Add(1)
	return 1, time.Time{}, 1 << 30, nil
}
func (runBackend) ReleaseRun(string, uint64, int, bool) error { return nil }

// TestAllocBudgetGatewayRoundTrip bounds the dialed-client path through
// a gateway — client.Conn to the gateway's listener, the gateway's
// upstream client.Conn to a member listener, and back — at 4 heap
// objects per acquire/release cycle: twice the direct path's budget
// (internal/client's TestAllocBudgetClientRoundTrip), because every
// frame crosses the protocol twice. Against a member that grants runs,
// the gateway names its one lock domain and passes runs through, and
// three callers of one connection rotating on three keys hand the run's
// fences to each other inside the connection: that handoff allocates
// nothing (internal/client's TestAllocBudgetClientRunHandoff, with the
// gateway in the way). Built only without -race: instrumentation
// allocates.
func TestAllocBudgetGatewayRoundTrip(t *testing.T) {
	start := func(t *testing.T, backend transport.ClientBackend) *client.Conn {
		t.Helper()
		member, err := transport.NewClientGateway("", backend)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(member.Close)
		gw, err := New(Config{Members: []string{member.Addr()}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = gw.Close() })
		c, err := client.Dial(gw.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	t.Run("plain", func(t *testing.T) {
		c := start(t, noopBackend{})
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
		if avg := testing.AllocsPerRun(1000, cycle); avg > 4 {
			t.Fatalf("acquire+release through the gateway = %.2f allocs/op, want <= 4", avg)
		} else {
			t.Logf("%.2f allocs/op", avg)
		}
	})
	t.Run("runs", func(t *testing.T) {
		var runs atomic.Int64
		c := start(t, runBackend{runs: &runs})
		if c.Shards() != 1 {
			t.Fatalf("gateway names %d shards, want its member's 1", c.Shards())
		}
		ctx, stop := context.WithCancel(context.Background())
		cycle := func(key string) bool {
			h, err := c.Acquire(ctx, key)
			if err != nil {
				return false
			}
			return c.ReleaseHold(h) == nil
		}
		others := make(chan struct{}, 2)
		for _, key := range []string{"b", "c"} {
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
		for deadline := time.Now().Add(10 * time.Second); runs.Load() == 0; {
			if !cycle("a") || time.Now().After(deadline) {
				t.Fatal("the three callers never got a run through the gateway")
			}
		}
		for i := 0; i < 100; i++ {
			cycle("a")
		}
		if avg := testing.AllocsPerRun(1000, func() { cycle("a") }); avg != 0 {
			t.Fatalf("a cycle of handoffs inside a run passed through the gateway = %.2f allocs/op, want 0", avg)
		} else {
			t.Logf("%.2f allocs/op", avg)
		}
	})
}
