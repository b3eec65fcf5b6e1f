package lockservice

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

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

// TestPathCompressionReducesChainHops pins the policy's effect through
// the whole service stack: on an 8-node chain, the request after a
// far-end grant costs one hop compressed versus the full chain static.
// The hop totals come from the new Stats plumbing, so this also pins the
// grant.Hops path from core through runtime into the shard counters.
func TestPathCompressionReducesChainHops(t *testing.T) {
	run := func(compress bool) int64 {
		s := newService(t, Config{Shards: 1, Nodes: 8, Tree: topology.Line, Lease: -1,
			PathCompression: compress})
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

// demandSeq draws ops requesters among n members: uniform, Zipf(1.2) over
// ranks, or hot80 (rank 0 with probability 0.8, else uniform over all n).
// Ranks map to members through a seeded permutation, so the hot member is
// not the initial holder.
func demandSeq(demand string, n, ops int) []mutex.ID {
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(n)
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(n-1))
	seq := make([]mutex.ID, ops)
	for i := range seq {
		var rank int
		switch demand {
		case "uniform":
			rank = rng.Intn(n)
		case "zipf":
			rank = int(zipf.Uint64())
		case "hot80":
			if rank = rng.Intn(n); rng.Float64() < 0.8 {
				rank = 0
			}
		}
		seq[i] = mutex.ID(perm[rank] + 1)
	}
	return seq
}

// TestTopologyCellCosts is the topology cost gate: initial shape x
// demand x members x policy, one resource on one shard, 1 024 sequential
// acquire/release cycles per cell. Every cell's message and hop counts
// are pinned exactly, and two closed forms are checked on top:
//
//   - Static: the paper's reversal keeps the DAG on the tree's edges, so
//     a grant costs the request's path to the holder plus one PRIVILEGE,
//     and nothing when the requester already holds the idle token. Every
//     static cell equals Σ (d(holder, next) + 1) over the sequence's
//     consecutive distinct requesters, computed from topology.Tree.Dist;
//     on the uniform star that is the thesis's 3 − 5/N + 2/N² (EXP-6.2)
//     within 1%.
//   - Compressed: Lavault's average-case analysis of path reversal
//     (PAPERS.md, cs/0611098) states that "the expected cost of path
//     reversal is thus proved to be exactly H_{n-1}", the harmonic
//     number. Under uniform demand every shape's compressed cell lies
//     within 2% of H(N−1), whatever tree it started from.
//
// The table is why compression is the one topology knob: it wins on
// chain, radial and 4-ary trees, and under uniform demand it loses to the
// static star past five members (H(N−1) grows, the star stays below 3).
func TestTopologyCellCosts(t *testing.T) {
	const ops = 1024
	shapes := []struct {
		name string
		tree func(int) *topology.Tree
	}{
		{"star", topology.Star},
		{"chain", topology.Line},
		{"radial", topology.Radial},
		{"kary4", func(n int) *topology.Tree { return topology.KAry(n, 4) }},
	}
	// Messages and hops per cell: static, then compressed.
	want := map[string][4]int64{
		"8/uniform/star":    {2483, 1581, 2658, 1756},
		"8/uniform/chain":   {3567, 2665, 2643, 1741},
		"8/uniform/radial":  {2972, 2070, 2685, 1783},
		"8/uniform/kary4":   {2759, 1857, 2661, 1759},
		"8/zipf/star":       {2239, 1455, 2160, 1376},
		"8/zipf/chain":      {2743, 1959, 2129, 1345},
		"8/zipf/radial":     {2958, 2174, 2145, 1361},
		"8/zipf/kary4":      {2650, 1866, 2141, 1357},
		"8/hot80/star":      {824, 533, 748, 457},
		"8/hot80/chain":     {1084, 793, 691, 400},
		"8/hot80/radial":    {1019, 728, 740, 449},
		"8/hot80/kary4":     {923, 632, 721, 430},
		"32/uniform/star":   {2923, 1931, 4101, 3109},
		"32/uniform/chain":  {11456, 10464, 4196, 3204},
		"32/uniform/radial": {4254, 3262, 4075, 3083},
		"32/uniform/kary4":  {4490, 3498, 4141, 3149},
		"32/zipf/star":      {2590, 1697, 2999, 2106},
		"32/zipf/chain":     {10926, 10033, 3025, 2132},
		"32/zipf/radial":    {3609, 2716, 3071, 2178},
		"32/zipf/kary4":     {4084, 3191, 3099, 2206},
		"32/hot80/star":     {969, 641, 1058, 730},
		"32/hot80/chain":    {3671, 3343, 929, 601},
		"32/hot80/radial":   {1426, 1098, 1114, 786},
		"32/hot80/kary4":    {1621, 1293, 1062, 734},
	}
	for _, n := range []int{8, 32} {
		for _, demand := range []string{"uniform", "zipf", "hot80"} {
			seq := demandSeq(demand, n, ops)
			for _, sh := range shapes {
				name := fmt.Sprintf("%d/%s/%s", n, demand, sh.name)
				tree := sh.tree(n)
				var got [4]int64
				for p, compress := range []bool{false, true} {
					s := newService(t, Config{Shards: 1, Nodes: n, Tree: sh.tree, Lease: -1,
						PathCompression: compress})
					for _, id := range seq {
						pump(t, s, int(id), "topo")
					}
					st := s.Stats()
					if st.Grants != ops {
						t.Fatalf("%s: %d grants, want %d", name, st.Grants, ops)
					}
					got[2*p], got[2*p+1] = st.Messages, st.Hops
				}
				t.Logf("%-18s static %.3f msgs/grant, compressed %.3f: %v", name,
					float64(got[0])/ops, float64(got[2])/ops, got)
				if got != want[name] {
					t.Errorf("%s: msgs, hops static then compressed %v, want %v", name, got, want[name])
				}
				if msgs, hops := staticCost(tree, seq); got[0] != msgs || got[1] != hops {
					t.Errorf("%s: static msgs %d hops %d, want Σ(d+1) = %d and Σd = %d",
						name, got[0], got[1], msgs, hops)
				}
				if demand != "uniform" {
					continue
				}
				if h := harmonic(n - 1); math.Abs(float64(got[2])/ops/h-1) > 0.02 {
					t.Errorf("%s: compressed %.3f msgs/grant, want within 2%% of H(%d) = %.3f",
						name, float64(got[2])/ops, n-1, h)
				}
				if sh.name == "star" {
					N := float64(n)
					if f := 3 - 5/N + 2/(N*N); math.Abs(float64(got[0])/ops/f-1) > 0.01 {
						t.Errorf("%s: static %.3f msgs/grant, want within 1%% of 3 − 5/N + 2/N² = %.3f",
							name, float64(got[0])/ops, f)
					}
				}
			}
		}
	}
}

// staticCost is the static DAG's message and hop counts for a
// sequential request stream: for every grant that moves the token, the
// request's tree path to the current holder plus one PRIVILEGE. The
// initial holder of shard 0 is member 1.
func staticCost(tree *topology.Tree, seq []mutex.ID) (msgs, hops int64) {
	holder := mutex.ID(1)
	for _, id := range seq {
		if id != holder {
			d := int64(tree.Dist(holder, id))
			msgs, hops = msgs+d+1, hops+d
			holder = id
		}
	}
	return msgs, hops
}

// harmonic returns H(k) = 1 + 1/2 + … + 1/k.
func harmonic(k int) float64 {
	h := 0.0
	for i := 1; i <= k; i++ {
		h += 1 / float64(i)
	}
	return h
}
