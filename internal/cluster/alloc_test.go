//go:build !race

package cluster

import (
	"runtime"
	"testing"

	"dagmutex/internal/mutex"
	"dagmutex/internal/raymond"
	"dagmutex/internal/sim"
	"dagmutex/internal/topology"
)

// TestAllocBudgetBoxedDelivery is the twin of simharness's
// TestAllocBudgetSimharnessDelivery for a baseline protocol: Raymond's
// messages travel boxed (mutex.Message) through the same pooled events.
// The engine adds nothing per message (and boxing Raymond's empty REQUEST
// and PRIVILEGE structs at Env.Send costs nothing); what the run
// allocates is Raymond itself — its per-node FIFO queue is re-sliced
// from the front and appended to, so it reallocates as it cycles: one
// object per three messages on this workload, all inside
// raymond.(*Node).Request and Deliver. Pinned where it measures, so an
// allocation creeping into the shared event path shows.
func TestAllocBudgetBoxedDelivery(t *testing.T) {
	tree := topology.KAry(40, 3)
	c, err := New(raymond.Builder, dagConfig(tree, 1), WithCSTime(sim.Hop/2))
	if err != nil {
		t.Fatal(err)
	}
	c.OnRelease(func(id mutex.ID, at sim.Time) { c.RequestAt(at+5*sim.Hop, id) })
	for _, id := range tree.IDs() {
		c.RequestAt(sim.Time(id), id)
	}
	// Warm up: the event pool, the scheduler's heap, every node's queue
	// and the grant log's backing array reach their high-water marks.
	c.grants = make([]Grant, 0, 1<<16)
	c.Clock().Advance(2000 * 1000)

	var before, after runtime.MemStats
	msgs := c.Counts().Delivered
	runtime.ReadMemStats(&before)
	c.Clock().Advance(20000 * 1000)
	runtime.ReadMemStats(&after)
	msgs = c.Counts().Delivered - msgs

	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if msgs < 10000 {
		t.Fatalf("only %d messages delivered in the measured window", msgs)
	}
	perMsg := float64(after.Mallocs-before.Mallocs) / float64(msgs)
	t.Logf("%.4f allocs per delivered boxed message over %d messages", perMsg, msgs)
	if perMsg > 0.35 {
		t.Errorf("%.4f allocs per delivered boxed message, want <= 0.35 (measures 0.3333)", perMsg)
	}
}
