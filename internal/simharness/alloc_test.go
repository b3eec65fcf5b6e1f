//go:build !race

package simharness

import (
	"runtime"
	"testing"
	"time"
)

// TestAllocBudgetSimharnessDelivery bounds the steady state of a run at
// no heap object per delivered message. Deliveries, driver steps, their
// timers and the scheduler's events are all recycled, and the message
// itself rides the pooled event by value: nodeEnv implements
// core.MsgSender, so core never boxes a REQUEST or PRIVILEGE into a
// mutex.Message, and deliver hands it back through DeliverMsg.
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
	// The slack is for the pool and the scheduler's heap growing past
	// their warm-up high-water marks, and for the Go runtime's own
	// background allocations.
	if perMsg > 0.005 {
		t.Errorf("%.4f allocs per delivered message, want <= 0.005", perMsg)
	}
}
