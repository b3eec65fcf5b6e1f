package lockservice

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"dagmutex/internal/mutex"
	"dagmutex/internal/topology"
)

// pump drives one acquire/release through member id and returns the
// hold's fence, failing the test on any error.
func pump(t *testing.T, s *Service, id int, resource string) uint64 {
	t.Helper()
	c, err := s.On(mutex.ID(id))
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Acquire(context.Background(), resource)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ReleaseHold(h); err != nil {
		t.Fatal(err)
	}
	return h.Fence
}

// awaitQuiet waits for a planned reshape round, which runs
// asynchronously (probe, acks, reorients), to drain: the service's
// message count must hold still across three polls.
func awaitQuiet(s *Service) {
	for stable, last := 0, s.Messages(); stable < 3; {
		time.Sleep(2 * time.Millisecond)
		if m := s.Messages(); m == last {
			stable++
		} else {
			stable, last = 0, m
		}
	}
}

// TestPathCompressionReducesChainHops pins the policy's effect through
// the whole service stack: on an 8-node chain, the request after a
// far-end grant costs one hop compressed versus the full chain static.
// The hop totals come from the new Stats plumbing, so this also pins the
// grant.Hops path from core through runtime into the shard counters.
func TestPathCompressionReducesChainHops(t *testing.T) {
	run := func(compress bool) int64 {
		s := newService(t, Config{Shards: 1, Nodes: 8, Tree: topology.Line, Lease: -1,
			Topology: Topology{PathCompression: compress}})
		pump(t, s, 8, "orders") // walks the whole chain: 7 hops either way
		pump(t, s, 1, "orders") // compressed: 1 hop straight to 8; static: 7 again
		return s.Stats().Hops
	}
	if static := run(false); static != 14 {
		t.Fatalf("static chain hops = %d, want 14 (7 + 7)", static)
	}
	if compressed := run(true); compressed != 8 {
		t.Fatalf("compressed chain hops = %d, want 8 (7 + 1)", compressed)
	}
}

// TestRebalanceNowReshapesTowardHotNode drives the heat signal by hand:
// one member dominates the grant stream, a synchronous rebalance pass
// re-roots the shard around it, and the reshaped DAG serves the next
// acquire in one hop with the fence still strictly increasing.
func TestRebalanceNowReshapesTowardHotNode(t *testing.T) {
	s := newService(t, Config{Shards: 1, Nodes: 5, Tree: topology.Line, Lease: -1,
		Topology: Topology{PathCompression: false}})
	var last uint64
	for i := 0; i < 4; i++ {
		last = pump(t, s, 4, "orders") // node 4 is the hot requester
	}
	if planned := s.rebalanceNow(); planned != 1 {
		t.Fatalf("rebalanceNow planned %d reshapes, want 1", planned)
	}
	if st := s.Stats(); st.Reorients != 1 {
		t.Fatalf("Reorients = %d after a planned pass, want 1", st.Reorients)
	}
	// An idle interval plans nothing: no grants since the last snapshot.
	if planned := s.rebalanceNow(); planned != 0 {
		t.Fatalf("idle rebalanceNow planned %d reshapes, want 0", planned)
	}
	// The hop measurement below must see the reshaped DAG, not a request
	// re-queued mid-round.
	awaitQuiet(s)
	before := s.Stats().Hops
	fence := pump(t, s, 2, "orders") // reshaped DAG: 2 reaches the token in one hop
	if fence <= last {
		t.Fatalf("fence after reshape = %d, want > %d (strictly monotonic)", fence, last)
	}
	if hops := s.Stats().Hops - before; hops != 1 {
		t.Fatalf("post-reshape acquire took %d hops, want 1 (star around the hot node)", hops)
	}
}

// TestRebalanceTickerAdaptsInBackground exercises the configured
// cadence end to end: skewed traffic plus a short RebalanceEvery must
// produce at least one planned reshape without any explicit call.
func TestRebalanceTickerAdaptsInBackground(t *testing.T) {
	s := newService(t, Config{Shards: 1, Nodes: 4, Tree: topology.Line, Lease: -1,
		Topology: Topology{RebalanceEvery: 2 * time.Millisecond}})
	deadline := time.After(5 * time.Second)
	for s.Stats().Reorients == 0 {
		pump(t, s, 3, "orders")
		select {
		case <-deadline:
			t.Fatal("no background reshape within 5s of skewed traffic")
		default:
		}
	}
}

// TestTopologyCellCosts is the rebalancer's cost gate: initial shape x
// adaptive policy on a 32-node, one-resource shard under a seeded
// Zipf(1.2) requester stream (identities shuffled by a seeded
// permutation so the hot member is not the initial holder), 512
// sequential acquire/release cycles, and under the rebalance policy a
// synchronous pass every 64 ops whose round drains before the next
// acquire. Every count is exact: a change to routing, compression or
// the reshape round that moves one message fails here.
func TestTopologyCellCosts(t *testing.T) {
	const nodes, ops, rebalanceEvery = 32, 512, 64
	shapes := map[string]func(int) *topology.Tree{
		"chain": topology.Line, "star": topology.Star, "radial": topology.Radial,
	}
	cells := []struct {
		shape, policy         string
		msgs, hops, reorients int64
	}{
		{"chain", "static", 5257, 4812, 0},
		{"chain", "compress", 1492, 1047, 0},
		{"chain", "rebalance", 1979, 883, 7},
		{"star", "static", 1286, 841, 0},
		{"star", "compress", 1464, 1019, 0},
		{"star", "rebalance", 1962, 866, 7},
		{"radial", "static", 1793, 1348, 0},
		{"radial", "compress", 1511, 1066, 0},
		{"radial", "rebalance", 1966, 870, 7},
	}
	msgs := map[string]int64{}
	for _, c := range cells {
		s := newService(t, Config{Shards: 1, Nodes: nodes, Tree: shapes[c.shape], Lease: -1,
			Topology: Topology{PathCompression: c.policy != "static"}})
		rng := rand.New(rand.NewSource(1))
		zipf := rand.NewZipf(rng, 1.2, 1, nodes-1)
		perm := rng.Perm(nodes)
		for i := 0; i < ops; i++ {
			if c.policy == "rebalance" && i > 0 && i%rebalanceEvery == 0 {
				s.rebalanceNow()
				awaitQuiet(s)
			}
			pump(t, s, perm[zipf.Uint64()]+1, "topo")
		}
		st := s.Stats()
		name := c.shape + "/" + c.policy
		t.Logf("%s: msgs %d (%.2f/grant) hops %d (%.2f/grant) reorients %d", name,
			st.Messages, float64(st.Messages)/ops, st.Hops, float64(st.Hops)/ops, st.Reorients)
		if st.Grants != ops || st.Messages != c.msgs || st.Hops != c.hops || st.Reorients != c.reorients {
			t.Errorf("%s: grants %d msgs %d hops %d reorients %d, want %d %d %d %d",
				name, st.Grants, st.Messages, st.Hops, st.Reorients, ops, c.msgs, c.hops, c.reorients)
		}
		msgs[name] = st.Messages
	}
	if msgs["chain/compress"] >= msgs["chain/static"] {
		t.Fatalf("compression did not cut the chain's messages: %d vs %d",
			msgs["chain/compress"], msgs["chain/static"])
	}
}
