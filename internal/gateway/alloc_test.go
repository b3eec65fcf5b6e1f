//go:build !race

package gateway

import (
	"context"
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

// TestAllocBudgetGatewayRoundTrip bounds the dialed-client path through
// a gateway — client.Conn to the gateway's listener, the gateway's
// upstream client.Conn to a member listener, and back — at 4 heap
// objects per acquire/release cycle: twice the direct path's budget
// (internal/client's TestAllocBudgetClientRoundTrip), because every
// frame crosses the protocol twice. Built only without -race:
// instrumentation allocates.
func TestAllocBudgetGatewayRoundTrip(t *testing.T) {
	member, err := transport.NewClientGateway("", noopBackend{})
	if err != nil {
		t.Fatal(err)
	}
	defer member.Close()
	gw, err := New(Config{Members: []string{member.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = gw.Close() }()
	c, err := client.Dial(gw.Addr())
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
	if avg := testing.AllocsPerRun(1000, cycle); avg > 4 {
		t.Fatalf("acquire+release through the gateway = %.2f allocs/op, want <= 4", avg)
	} else {
		t.Logf("%.2f allocs/op", avg)
	}
}
