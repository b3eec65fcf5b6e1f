//go:build !race

package simharness

import (
	"runtime"
	"testing"
	"time"
)

// liveHeap returns the bytes the heap holds after a collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestBuildHundredThousandNodes is the set-up's scale guard: building a
// cluster must stay linear in its size. 100 000 kary4 members build in
// ~0.07 s on a 2-core x86-64 VM; when each node rescanned the whole ID
// list the same build took ~11 s. It is also the footprint guard of a
// built node: the cluster retains ~250 bytes per member (a 128-byte
// core.Node with no cold state, a 64-byte sim.Member, the tree and the
// index), 433 when the node carried its recovery and INIT fields and the
// member was 88 bytes. Skipped under -short.
func TestBuildHundredThousandNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("100 000-node build; run without -short")
	}
	base := liveHeap()
	start := time.Now()
	h, err := New(Config{Nodes: 100_000, Topology: "kary4", Seed: 1})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	perNode := (liveHeap() - base) / 100_000
	runtime.KeepAlive(h)
	t.Logf("100000-node New took %v and retains %d bytes per node", wall, perNode)
	if got := len(h.c.IDs()); got != 100_000 {
		t.Fatalf("built %d members, want 100000", got)
	}
	if wall > 3*time.Second {
		t.Errorf("100000-node New took %v, want <= 3s (cluster set-up is no longer linear)", wall)
	}
	if perNode > 300 {
		t.Errorf("a built 100000-node cluster retains %d bytes per node, want <= 300 (a node or member grew)", perNode)
	}
}

// TestChurnHundredThousandNodes is the FIFO clamp's scale guard: one
// simulated minute of 400 requesters on a 100 000-node kary4 tree, with
// the root crashing at 20 s and node 50 000 at 40 s, each detected after
// 80 ms. Every PROBE and REORIENT broadcast puts a message to each member
// in flight from one sender; a clamp that rescanned the sender's
// in-flight list on every send made that O(n²) — 54 s for this run on a
// 2-core x86-64 VM, against 1.6 s with the map it now moves a broadcast
// sender to. The run must also stay the same run: its grant, message and
// event counts are pinned (the rescanning clamp produced the same ones
// under the same random streams). It is also the
// footprint guard of recovery and of the simulator's storage: after the
// minute the run retains ~380 bytes per node, ~100 of them each
// survivor's cold state and suspicion list. Each broadcast has 100 000
// events pending at once; the clock's slot table, the network's payloads
// and the queue's arrays give that peak back once the pending set has
// fallen again (~760 when they kept it, as a pooled event per delivery
// and an array per carried bit; 983 when every survivor kept a suspicion
// map in a 288-byte node). Skipped under -short.
func TestChurnHundredThousandNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("100 000-node churn; run without -short")
	}
	base := liveHeap()
	h, err := New(Config{Nodes: 100_000, Topology: "kary4", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h.ScheduleCrash(20*time.Second, 1, 80*time.Millisecond)
	h.ScheduleCrash(40*time.Second, 50_000, 80*time.Millisecond)
	r, err := h.Run(Workload{Duration: time.Minute, Requesters: 400})
	if err != nil {
		t.Fatal(err)
	}
	perNode := (liveHeap() - base) / 100_000
	runtime.KeepAlive(h)
	t.Logf("100000-node churned minute: %v wall, %d grants, %d messages, %d events, %d recoveries, %d regenerations, %d bytes retained per node",
		r.WallDuration, r.Grants, r.Messages, r.Events, r.Recoveries, r.Regenerations, perNode)
	if r.Grants != 9_844 || r.Messages != 674_024 || r.Events != 893_944 {
		t.Errorf("%d grants, %d messages, %d events; want 9844, 674024, 893944", r.Grants, r.Messages, r.Events)
	}
	if r.WallDuration > 10*time.Second {
		t.Errorf("100000-node churned minute took %v, want <= 10s (the FIFO clamp rescans a broadcast again)", r.WallDuration)
	}
	if perNode > 450 {
		t.Errorf("the churned 100000-node cluster retains %d bytes per node, want <= 450 (recovery state grew, or the simulator keeps a broadcast's peak)", perNode)
	}
}

// TestSimScaleFootprint is the footprint guard of bench's sim_scale shape:
// 1000 kary4 nodes, 400 requesters, 12 simulated minutes. After the run
// at most a few events are pending, so what the harness retains is the
// nodes, the members and the tree — not storage sized to the ~400 events
// pending at the run's peak. It retains ~245 KB; 360 KB when each event
// was a pooled object, every bucket of the queue kept the largest array
// it had held, the slot table stayed at its peak and the cluster kept the
// build's parent map. Skipped under -short.
func TestSimScaleFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("12 simulated minutes of 1000 nodes; run without -short")
	}
	base := liveHeap()
	h, err := New(Config{Nodes: 1000, Topology: "kary4", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := h.Run(Workload{Duration: 12 * time.Minute, Requesters: 400})
	if err != nil {
		t.Fatal(err)
	}
	kb := (liveHeap() - base) / 1024
	runtime.KeepAlive(h)
	t.Logf("1000-node sim_scale run: %d grants, %d events, %d KB retained", r.Grants, r.Events, kb)
	if kb > 300 {
		t.Errorf("the 1000-node run retains %d KB, want <= 300 (storage follows the peak, not the pending set)", kb)
	}
}
