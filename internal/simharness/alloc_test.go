//go:build !race

package simharness

import (
	"runtime"
	"testing"
	"time"
)

// TestAllocBudgetSimharnessDelivery bounds the steady state of a run at
// one heap object per delivered message, and that object is not the
// harness's: it is the interface boxing when core hands a concrete
// message to Env.Send — the same remainder TestAllocBudgetTCPHandoff
// documents for the live transport. Deliveries, driver steps, their
// timers and the scheduler's events are all recycled.
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
	h.clk.Advance(2 * time.Minute)

	var before, after runtime.MemStats
	msgs := h.msgs
	runtime.ReadMemStats(&before)
	h.clk.Advance(5 * time.Minute)
	runtime.ReadMemStats(&after)
	msgs = h.msgs - msgs

	if len(h.violations) > 0 {
		t.Fatalf("run violated an invariant: %v", h.violations)
	}
	if msgs < 10000 {
		t.Fatalf("only %d messages delivered in the measured window", msgs)
	}
	perMsg := float64(after.Mallocs-before.Mallocs) / float64(msgs)
	t.Logf("%.4f allocs per delivered message over %d messages", perMsg, msgs)
	// The slack is for messages sent in the window and still in flight
	// when it closes, and for the runtime's own background allocations.
	if perMsg > 1.005 {
		t.Errorf("%.4f allocs per delivered message, want <= 1", perMsg)
	}
}
