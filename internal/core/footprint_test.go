package core

import (
	"testing"
	"unsafe"

	"dagmutex/internal/mutex"
	"dagmutex/internal/topology"
)

// TestNodeFitsTwoCacheLines: a node is its hot state, packed into two
// 64-byte cache lines, and one pointer to everything only recovery and
// INIT use. A field added to the hot part that breaks the packing, or a
// cold field moved back into it, fails here.
func TestNodeFitsTwoCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(Node{}); size > 128 {
		t.Errorf("core.Node is %d bytes, want <= 128", size)
	}
}

// TestSecondRecoveryReusesColdState: the cold state a node allocated in
// its first recovery round, and the coordinator's round with its awaiting
// bitset, serve the second round as they are. A round that allocated them
// afresh would add its allocations to every recovery of a long run.
func TestSecondRecoveryReusesColdState(t *testing.T) {
	cw := newChaosWorld(t, topology.Star(6), 1)
	cw.request(2)
	cw.request(3)
	cw.drain()

	cw.crash(1)
	cw.suspect(1)
	cw.drain()
	colds := make(map[mutex.ID]*cold)
	for id, n := range cw.Nodes {
		if n == nil || cw.dead[id] {
			continue
		}
		if n.cold == nil {
			t.Fatalf("node %d took part in a recovery and has no cold state", id)
		}
		colds[mutex.ID(id)] = n.cold
	}
	r := cw.Nodes[6].cold.round
	if r == nil {
		t.Fatal("coordinator 6 has no round after coordinating one")
	}
	bits := &r.awaiting[0]

	cw.crash(2)
	cw.suspect(2)
	cw.drain()
	if cw.Nodes[6].Epoch() != 2 {
		t.Fatalf("epoch %d after two recoveries, want 2", cw.Nodes[6].Epoch())
	}
	for id, c := range colds {
		if cw.dead[id] {
			continue
		}
		if cw.Nodes[id].cold != c {
			t.Errorf("node %d allocated new cold state for its second round", id)
		}
		if q := cw.Nodes[id].Storage().QueueEntries; q != 0 {
			t.Errorf("node %d reports %d queue entries after the round, want 0", id, q)
		}
	}
	if cw.Nodes[6].cold.round != r || &r.awaiting[0] != bits {
		t.Error("coordinator 6 allocated a new round or awaiting bitset for its second round")
	}
	if got := cw.tokens(); got != 1 {
		t.Fatalf("live tokens = %d, want exactly 1", got)
	}
}
