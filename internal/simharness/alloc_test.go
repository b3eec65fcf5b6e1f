//go:build !race

package simharness

import (
	"runtime"
	"testing"
	"time"

	"dagmutex/internal/sim"
)

// TestAllocBudgetSimharnessDelivery bounds the steady state of a run at
// no heap object per delivered message. Deliveries, driver steps, their
// timers and the scheduler's events are all recycled, and the message
// itself rides the engine's pooled event by value: the cluster's Env
// implements core.MsgSender, so core never boxes a REQUEST or PRIVILEGE
// into a mutex.Message, and the network hands it back through
// DeliverMsg. (internal/cluster's TestAllocBudgetBoxedDelivery is the
// twin for a baseline protocol's boxed messages on the same events.)
func TestAllocBudgetSimharnessDelivery(t *testing.T) {
	h, err := New(Config{Nodes: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{Duration: time.Hour, Requesters: 80, Think: time.Second, Hold: 5 * time.Millisecond}
	if err := h.start(w); err != nil {
		t.Fatal(err)
	}
	// Warm up: the event pool, the scheduler's heap and every member's
	// request queue reach their high-water marks.
	h.c.RunFor(sim.Time(2 * time.Minute))

	var before, after runtime.MemStats
	msgs := h.c.Counts().Delivered
	runtime.ReadMemStats(&before)
	_, err = h.c.RunFor(sim.Time(5 * time.Minute))
	runtime.ReadMemStats(&after)
	msgs = h.c.Counts().Delivered - msgs

	if err != nil {
		t.Fatalf("run violated an invariant: %v", err)
	}
	if msgs < 10000 {
		t.Fatalf("only %d messages delivered in the measured window", msgs)
	}
	perMsg := float64(after.Mallocs-before.Mallocs) / float64(msgs)
	t.Logf("%.4f allocs per delivered message over %d messages", perMsg, msgs)
	// The slack is for the pool and the scheduler's heap growing past
	// their warm-up high-water marks, and for the Go runtime's own
	// background allocations.
	if perMsg > 0.005 {
		t.Errorf("%.4f allocs per delivered message, want <= 0.005", perMsg)
	}
}
