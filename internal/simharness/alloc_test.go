//go:build !race

package simharness

import (
	"runtime"
	"testing"
	"time"

	"dagmutex/internal/sim"
)

// TestAllocBudgetSimharnessNew bounds what building a 1000-node cluster
// allocates: one core.Node per member plus a fixed few dozen objects
// (the tree, the parent map, the env and reqAt slices, the member
// index). A node allocates its cold state (suspicion list, deferred
// messages, the coordinator's round, INIT neighbors) only when a fault or
// Figure 5 INIT needs it, so a built cluster holds none. It measures 1042
// on go1.24/amd64 (1045 while the network made its count maps up front)
// and repeats exactly; cold state allocated at construction, a per-node
// env box or adjacency list, or the topology's map-based BFS coming back
// puts it in the thousands (5857 when each node rescanned the ID list and
// carried a suspicion map, an env box and an adjacency list).
func TestAllocBudgetSimharnessNew(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := New(Config{Nodes: 1000, Topology: "kary4", Seed: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per 1000-node New", allocs)
	if allocs > 1100 {
		t.Errorf("%.0f allocs per 1000-node New, want <= 1100", allocs)
	}
}

// TestAllocBudgetSimharnessDelivery bounds the steady state of a run at
// no heap object per delivered message. Deliveries and driver steps are
// values in the network's table at their clock slots, and the message
// itself waits in the network's payload table by value: the cluster's Env
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
	if _, err := h.start(w); err != nil {
		t.Fatal(err)
	}
	// Warm up: the clock's and the network's tables, the queue's arrays
	// and every member's request queue reach their high-water marks.
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
	// The slack is for the tables and the queue's arrays growing past
	// their warm-up high-water marks, and for the Go runtime's own
	// background allocations.
	if perMsg > 0.005 {
		t.Errorf("%.4f allocs per delivered message, want <= 0.005", perMsg)
	}
}
