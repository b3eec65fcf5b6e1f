//go:build !race

package lockservice

import (
	"context"
	"testing"

	"dagmutex/internal/mutex"
	"dagmutex/internal/telemetry"
)

// TestAllocBudgetShardTravel pins the grant that moves the token at zero
// heap allocations through the whole member stack — slot, session,
// core, mailbox: two members of a one-shard in-process service take one
// key in turn, so every acquire sends a REQUEST to the other member and
// brings the PRIVILEGE back, and neither message is ever boxed. Skipped
// under -race (instrumentation allocates).
func TestAllocBudgetShardTravel(t *testing.T) {
	assertTravelAllocs(t, Config{Shards: 1, Nodes: 2})
}

// TestAllocBudgetShardTravelInstrumented holds the same budget with the
// full observability stack attached, as a production deployment runs
// it: a live registry the shard feeds its instruments into and a trace
// observer invoked on every protocol event. Telemetry's tax is then a
// wall-clock cost only, which bench reports as trace.overhead_share.
func TestAllocBudgetShardTravelInstrumented(t *testing.T) {
	assertTravelAllocs(t, Config{Shards: 1, Nodes: 2,
		Telemetry: telemetry.NewRegistry(), TraceObserver: func(telemetry.TraceEvent) {}})
}

func assertTravelAllocs(t *testing.T, cfg Config) {
	t.Helper()
	s := newService(t, cfg)
	ctx := context.Background()
	var members [2]*Client
	for i := range members {
		c, err := s.On(mutex.ID(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		members[i] = c
	}
	turn := 0
	step := func() {
		c := members[turn]
		turn = 1 - turn
		h, err := c.Acquire(ctx, "k")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.ReleaseHold(h); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		step() // settle the mailboxes and the edge reversal
	}
	before := s.Stats()
	allocs := testing.AllocsPerRun(1000, step)
	after := s.Stats()
	t.Logf("travelling grant: %.2f allocs/op", allocs)
	if allocs != 0 {
		t.Fatalf("travelling grant allocates %.2f/op, want 0", allocs)
	}
	// The budget only means something if the token really moved: two
	// messages (REQUEST there, PRIVILEGE back) per measured grant.
	grants, msgs := after.Grants-before.Grants, after.Messages-before.Messages
	if grants < 1000 || msgs != 2*grants {
		t.Fatalf("%d grants moved %d messages in the measured window, want 2 per grant", grants, msgs)
	}
}
