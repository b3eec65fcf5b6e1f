package harness

import (
	"fmt"
	"math"
	"math/rand"

	"dagmutex/internal/cluster"
	"dagmutex/internal/metrics"
	"dagmutex/internal/mutex"
	"dagmutex/internal/sim"
	"dagmutex/internal/topology"
	"dagmutex/internal/workload"
)

// newCluster builds a cluster for a on tree with the given holder.
func newCluster(a Algorithm, tree *topology.Tree, holder mutex.ID, opts ...cluster.Option) (*cluster.Cluster, error) {
	cfg, err := a.Configure(tree, holder)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	c, err := cluster.New(a.Builder, cfg, opts...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	return c, nil
}

// SingleRequestCost runs one request from requester (with the token or
// coordinator at holder) from quiescence and returns the total messages.
func SingleRequestCost(a Algorithm, tree *topology.Tree, holder, requester mutex.ID) (int64, error) {
	c, err := newCluster(a, tree, holder)
	if err != nil {
		return 0, err
	}
	c.RequestAt(0, requester)
	if err := c.Run(); err != nil {
		return 0, fmt.Errorf("%s: %w", a.Name, err)
	}
	if c.Entries() != 1 {
		return 0, fmt.Errorf("%s: %d entries, want 1", a.Name, c.Entries())
	}
	return c.Counts().Messages, nil
}

// HeavyDemandCost saturates every node with perNode entries and returns
// the average messages per entry — §6.2's heavy-demand regime.
func HeavyDemandCost(a Algorithm, tree *topology.Tree, holder mutex.ID, perNode int) (float64, error) {
	c, err := newCluster(a, tree, holder, cluster.WithCSTime(sim.Hop/2))
	if err != nil {
		return 0, err
	}
	workload.Closed{Requests: perNode}.Install(c)
	if err := c.Run(); err != nil {
		return 0, fmt.Errorf("%s: %w", a.Name, err)
	}
	return metrics.MessagesPerEntry(c.Counts(), c.Entries()), nil
}

// MeasuredSyncDelay constructs §6.3's scenario — a waiter already enqueued
// when the current occupant exits — and returns the delay in hops between
// the occupant's exit and the waiter's entry. holder seeds the token (or
// coordinator role); occupant is the node whose critical section the
// waiter waits out, which for the centralized scheme must differ from the
// coordinator to expose the RELEASE+GRANT double hop.
func MeasuredSyncDelay(a Algorithm, tree *topology.Tree, holder, occupant, waiter mutex.ID) (float64, error) {
	c, err := newCluster(a, tree, holder, cluster.WithCSTime(100*sim.Hop))
	if err != nil {
		return 0, err
	}
	c.RequestAt(0, occupant)
	c.RequestAt(50*sim.Hop, waiter)
	if err := c.Run(); err != nil {
		return 0, fmt.Errorf("%s: %w", a.Name, err)
	}
	ds := metrics.SyncDelays(c.Grants())
	if len(ds) != 1 {
		return 0, fmt.Errorf("%s: %d waiting grants, want 1", a.Name, len(ds))
	}
	return ds[0], nil
}

// UpperBound reproduces §6.1's comparison list: the worst-case messages
// per critical-section entry of every algorithm, measured on adversarial
// scenarios and set against the paper's formula.
func UpperBound(ns []int) (*Table, error) {
	t := &Table{
		ID:      "EXP-6.1-upper",
		Title:   "Worst-case messages per critical-section entry (thesis §6.1)",
		Columns: []string{"algorithm", "N", "scenario", "measured", "paper bound", "formula"},
		Notes: []string{
			"dag/star and central reach the same constant 3; dag/line degrades to N, Raymond to 2D",
			"singhal and maekawa are measured as averages under saturation (their worst cases are load-driven)",
		},
	}
	for _, n := range ns {
		line := topology.Line(n)
		star := topology.Star(n)

		dagLine, err := SingleRequestCost(DAG, line, mutex.ID(n), 1)
		if err != nil {
			return nil, err
		}
		t.AddRow("dag", it(n), "line, ends", i64(dagLine), f1(DAG.UpperBound(n, n-1)), DAG.UpperBoundFormula)

		dagStar, err := worstOverPairs(DAG, star)
		if err != nil {
			return nil, err
		}
		t.AddRow("dag", it(n), "star, worst pair", i64(dagStar), f1(DAG.UpperBound(n, 2)), DAG.UpperBoundFormula)

		cen, err := SingleRequestCost(Centralized, star, 1, 2)
		if err != nil {
			return nil, err
		}
		t.AddRow("central", it(n), "non-coordinator", i64(cen), "3.0", Centralized.UpperBoundFormula)

		rayLine, err := SingleRequestCost(Raymond, line, mutex.ID(n), 1)
		if err != nil {
			return nil, err
		}
		t.AddRow("raymond", it(n), "line, ends", i64(rayLine), f1(Raymond.UpperBound(n, n-1)), Raymond.UpperBoundFormula)

		rayStar, err := worstOverPairs(Raymond, star)
		if err != nil {
			return nil, err
		}
		t.AddRow("raymond", it(n), "star, worst pair", i64(rayStar), f1(Raymond.UpperBound(n, 2)), Raymond.UpperBoundFormula)

		sk, err := SingleRequestCost(SuzukiKasami, star, 1, 2)
		if err != nil {
			return nil, err
		}
		t.AddRow("suzuki-kasami", it(n), "remote request", i64(sk), f1(SuzukiKasami.UpperBound(n, 0)), SuzukiKasami.UpperBoundFormula)

		sing, err := HeavyDemandCost(Singhal, star, 1, 8)
		if err != nil {
			return nil, err
		}
		t.AddRow("singhal", it(n), "saturation avg", f2(sing), f1(Singhal.UpperBound(n, 0)), Singhal.UpperBoundFormula)

		ra, err := SingleRequestCost(RicartAgrawala, star, 1, 2)
		if err != nil {
			return nil, err
		}
		t.AddRow("ricart-agrawala", it(n), "any request", i64(ra), f1(RicartAgrawala.UpperBound(n, 0)), RicartAgrawala.UpperBoundFormula)

		cr, err := SingleRequestCost(CarvalhoRoucairol, star, 1, mutex.ID(n))
		if err != nil {
			return nil, err
		}
		t.AddRow("carvalho-roucairol", it(n), "cold start, max id", i64(cr), f1(CarvalhoRoucairol.UpperBound(n, 0)), CarvalhoRoucairol.UpperBoundFormula)

		lam, err := SingleRequestCost(Lamport, star, 1, 2)
		if err != nil {
			return nil, err
		}
		t.AddRow("lamport", it(n), "any request", i64(lam), f1(Lamport.UpperBound(n, 0)), Lamport.UpperBoundFormula)

		mae, err := HeavyDemandCost(Maekawa, star, 1, 8)
		if err != nil {
			return nil, err
		}
		t.AddRow("maekawa", it(n), "saturation avg", f2(mae), f1(Maekawa.UpperBound(n, 0)), Maekawa.UpperBoundFormula)
	}
	return t, nil
}

// worstOverPairs measures the maximum single-request cost over every
// (holder, requester) pair of the tree.
func worstOverPairs(a Algorithm, tree *topology.Tree) (int64, error) {
	var worst int64
	for _, h := range tree.IDs() {
		for _, r := range tree.IDs() {
			cost, err := SingleRequestCost(a, tree, h, r)
			if err != nil {
				return 0, err
			}
			if cost > worst {
				worst = cost
			}
		}
	}
	return worst, nil
}

// meanOverPairs measures the mean single-request cost over every (holder,
// requester) pair — the exact enumeration behind §6.2's average bound.
func meanOverPairs(a Algorithm, tree *topology.Tree) (float64, error) {
	var total int64
	n := tree.N()
	for _, h := range tree.IDs() {
		for _, r := range tree.IDs() {
			cost, err := SingleRequestCost(a, tree, h, r)
			if err != nil {
				return 0, err
			}
			total += cost
		}
	}
	return float64(total) / float64(n*n), nil
}

// AverageBound reproduces §6.2: the exact average messages per entry on
// the best (star) topology, against the closed forms 3 − 5/N + 2/N² for
// the DAG algorithm and 3 − 3/N for the centralized scheme.
func AverageBound(ns []int) (*Table, error) {
	t := &Table{
		ID:      "EXP-6.2-avg",
		Title:   "Average messages per entry on the star topology (thesis §6.2)",
		Columns: []string{"N", "dag measured", "dag 3-5/N+2/N^2", "central measured", "central 3-3/N"},
		Notes: []string{
			"dag averages over every (token position, requester) pair; central over every requester",
			"both approach 3 as N grows, as the thesis concludes",
		},
	}
	for _, n := range ns {
		star := topology.Star(n)
		dagMean, err := meanOverPairs(DAG, star)
		if err != nil {
			return nil, err
		}
		fn := float64(n)
		dagFormula := 3 - 5/fn + 2/(fn*fn)

		var cenTotal int64
		for _, r := range star.IDs() {
			cost, err := SingleRequestCost(Centralized, star, 1, r)
			if err != nil {
				return nil, err
			}
			cenTotal += cost
		}
		cenMean := float64(cenTotal) / fn
		cenFormula := 3 - 3/fn

		t.AddRow(it(n), fmt.Sprintf("%.4f", dagMean), fmt.Sprintf("%.4f", dagFormula),
			fmt.Sprintf("%.4f", cenMean), fmt.Sprintf("%.4f", cenFormula))

		if math.Abs(dagMean-dagFormula) > 1e-9 {
			return nil, fmt.Errorf("dag average %.6f deviates from formula %.6f at N=%d", dagMean, dagFormula, n)
		}
		if math.Abs(cenMean-cenFormula) > 1e-9 {
			return nil, fmt.Errorf("central average %.6f deviates from formula %.6f at N=%d", cenMean, cenFormula, n)
		}
	}
	return t, nil
}

// TokenPlacement reproduces the two intermediate averages inside §6.2's
// derivation: with the token held by a leaf of the star, an entry costs
// (3(N−2) + 2 + 0)/N = 3 − 4/N messages on average over requesters; with
// the token at the center, ((N−1)·2 + 0)/N = 2 − 2/N. The overall
// average of AverageBound is the mix of these two.
func TokenPlacement(ns []int) (*Table, error) {
	t := &Table{
		ID:      "EXP-6.2-placement",
		Title:   "Token placement on the star: average messages per entry (thesis §6.2 derivation)",
		Columns: []string{"N", "token at leaf", "3-4/N", "token at center", "2-2/N"},
		Notes: []string{
			"averages over every requester including the holder itself (which costs 0)",
			"placing the token at the hub saves one message per entry: the hub forwards nothing",
		},
	}
	for _, n := range ns {
		star := topology.Star(n) // center is node 1
		fn := float64(n)

		leafMean, err := meanOverRequesters(DAG, star, 2) // node 2 is a leaf
		if err != nil {
			return nil, err
		}
		leafFormula := 3 - 4/fn

		centerMean, err := meanOverRequesters(DAG, star, 1)
		if err != nil {
			return nil, err
		}
		centerFormula := 2 - 2/fn

		t.AddRow(it(n), fmt.Sprintf("%.4f", leafMean), fmt.Sprintf("%.4f", leafFormula),
			fmt.Sprintf("%.4f", centerMean), fmt.Sprintf("%.4f", centerFormula))

		if math.Abs(leafMean-leafFormula) > 1e-9 {
			return nil, fmt.Errorf("leaf average %.6f deviates from 3-4/N %.6f at N=%d", leafMean, leafFormula, n)
		}
		if math.Abs(centerMean-centerFormula) > 1e-9 {
			return nil, fmt.Errorf("center average %.6f deviates from 2-2/N %.6f at N=%d", centerMean, centerFormula, n)
		}
	}
	return t, nil
}

// meanOverRequesters fixes the holder and averages the single-request
// cost over every possible requester (including the holder, at cost 0).
func meanOverRequesters(a Algorithm, tree *topology.Tree, holder mutex.ID) (float64, error) {
	var total int64
	for _, r := range tree.IDs() {
		cost, err := SingleRequestCost(a, tree, holder, r)
		if err != nil {
			return 0, err
		}
		total += cost
	}
	return float64(total) / float64(tree.N()), nil
}

// HeavyDemand reproduces §6.2's closing claim: under heavy demand both
// the DAG algorithm (on a star) and the centralized scheme cost at most
// about three messages per entry.
func HeavyDemand(ns []int) (*Table, error) {
	t := &Table{
		ID:      "EXP-6.2-heavy",
		Title:   "Messages per entry under heavy demand (thesis §6.2)",
		Columns: []string{"N", "dag/star", "central", "suzuki-kasami", "ricart-agrawala"},
		Notes: []string{
			"dag and central stay at or below 3; broadcast baselines grow linearly with N",
		},
	}
	for _, n := range ns {
		star := topology.Star(n)
		row := []string{it(n)}
		for _, a := range []Algorithm{DAG, Centralized, SuzukiKasami, RicartAgrawala} {
			v, err := HeavyDemandCost(a, star, 1, 10)
			if err != nil {
				return nil, err
			}
			row = append(row, f2(v))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// SyncDelay reproduces §6.3: the number of sequential message hops between
// one node leaving its critical section and the next (already waiting)
// node entering.
func SyncDelay() (*Table, error) {
	t := &Table{
		ID:      "EXP-6.3-delay",
		Title:   "Synchronization delay in message hops (thesis §6.3)",
		Columns: []string{"algorithm", "topology", "measured", "paper"},
		Notes: []string{
			"dag achieves the minimum of 1 on every topology; Raymond pays the diameter; central pays 2",
		},
	}
	type scenario struct {
		algo     Algorithm
		tree     *topology.Tree
		label    string
		holder   mutex.ID
		occupant mutex.ID
		waiter   mutex.ID
		paper    float64
	}
	line5 := topology.Line(5)
	star9 := topology.Star(9)
	scenarios := []scenario{
		{DAG, star9, "star-9", 2, 2, 3, 1},
		{DAG, line5, "line-5 ends", 5, 5, 1, 1},
		{Raymond, star9, "star-9", 2, 2, 3, 2}, // D = 2 on a star
		{Raymond, line5, "line-5 ends", 5, 5, 1, 4},
		{Centralized, star9, "star-9", 1, 2, 3, 2}, // RELEASE to coord + GRANT out
		{SuzukiKasami, star9, "n-9", 1, 1, 3, 1},
		{Singhal, star9, "n-9", 1, 1, 3, 1},
		{RicartAgrawala, star9, "n-9", 1, 1, 3, 1},
		{CarvalhoRoucairol, star9, "n-9", 1, 1, 3, 1},
		{Lamport, star9, "n-9", 1, 1, 3, 1},
		{Maekawa, star9, "n-9", 1, 1, 3, 2},
	}
	for _, s := range scenarios {
		d, err := MeasuredSyncDelay(s.algo, s.tree, s.holder, s.occupant, s.waiter)
		if err != nil {
			return nil, err
		}
		t.AddRow(s.algo.Name, s.label, f1(d), f1(s.paper))
	}
	return t, nil
}

// Storage reproduces §6.4: the per-node control state and the largest
// message each algorithm ships, measured at saturation.
func Storage(n int) (*Table, error) {
	t := &Table{
		ID:    "EXP-6.4-storage",
		Title: fmt.Sprintf("Storage overhead at N=%d under heavy demand (thesis §6.4)", n),
		Columns: []string{"algorithm", "scalars", "array entries", "queue entries",
			"bytes/node", "largest msg (B)"},
		Notes: []string{
			"dag: five scalars (the thesis's three + fencing generation + recovery epoch), 12-byte REQUEST and PRIVILEGE, plus one membership entry per member — the failure extension's only O(N) cost, load-independent",
			"array/queue entries are the per-node maxima observed at any grant or release",
		},
	}
	star := topology.Star(n)
	for _, a := range Algorithms() {
		c, err := newCluster(a, star, 1, cluster.WithCSTime(sim.Hop/2))
		if err != nil {
			return nil, err
		}
		storage := metrics.WatchStorage(c)
		workload.Closed{Requests: 8}.Install(c)
		if err := c.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		r := storage()
		largest := 0
		for _, sz := range c.Counts().MaxSizeByKind {
			if sz > largest {
				largest = sz
			}
		}
		t.AddRow(a.Name, it(r.PerNodeMax.Scalars), it(r.PerNodeMax.ArrayEntries),
			it(r.PerNodeMax.QueueEntries), it(r.PerNodeMax.Bytes), it(largest))
	}
	return t, nil
}

// TopologySweep reproduces the Figure 1/8 discussion: how the logical
// shape drives cost for the two tree-based algorithms, showing the star
// ("centralized topology") beating Raymond's radiating star.
func TopologySweep(n int, seed int64) (*Table, error) {
	t := &Table{
		ID:      "FIG-1/8-topo",
		Title:   fmt.Sprintf("Tree-shape sweep at N=%d: mean/worst messages per entry", n),
		Columns: []string{"topology", "D", "dag mean", "dag worst", "raymond mean", "raymond worst"},
		Notes: []string{
			"mean is the exact average over all (token, requester) pairs; worst is the max",
			"the star minimizes both columns for the dag algorithm, as §6 argues",
		},
	}
	shapes := []*topology.Tree{
		topology.Star(n),
		radiatingStarOf(n),
		topology.KAry(n, 2),
		topology.Random(n, rand.New(rand.NewSource(seed))),
		topology.Line(n),
	}
	for _, tree := range shapes {
		if tree == nil {
			continue
		}
		dagMean, err := meanOverPairs(DAG, tree)
		if err != nil {
			return nil, err
		}
		dagWorst, err := worstOverPairs(DAG, tree)
		if err != nil {
			return nil, err
		}
		rayMean, err := meanOverPairs(Raymond, tree)
		if err != nil {
			return nil, err
		}
		rayWorst, err := worstOverPairs(Raymond, tree)
		if err != nil {
			return nil, err
		}
		t.AddRow(tree.Name(), it(tree.Diameter()), f2(dagMean), i64(dagWorst), f2(rayMean), i64(rayWorst))
	}
	return t, nil
}

// radiatingStarOf builds a radiating star close to n nodes (exact when
// n-1 has a factorization arms×len with len ≥ 2); nil when impossible.
func radiatingStarOf(n int) *topology.Tree {
	rest := n - 1
	for armLen := 2; armLen <= rest; armLen++ {
		if rest%armLen == 0 {
			return topology.RadiatingStar(rest/armLen, armLen)
		}
	}
	return nil
}

// LoadSweep is the EXT-load ablation: messages per entry as demand rises
// (think time falls), contrasting constant-cost schemes with broadcast
// schemes.
func LoadSweep(n int, thinks []sim.Time, seed int64) (*Table, error) {
	t := &Table{
		ID:      "EXT-load",
		Title:   fmt.Sprintf("Load sweep at N=%d: messages per entry vs mean think time (hops)", n),
		Columns: []string{"think (hops)", "dag/star", "central", "suzuki-kasami", "ricart-agrawala", "maekawa"},
		Notes: []string{
			"think time 0 is §6.2's heavy demand; large think time approximates isolated requests",
		},
	}
	star := topology.Star(n)
	for _, think := range thinks {
		row := []string{f1(float64(think) / float64(sim.Hop))}
		for _, a := range []Algorithm{DAG, Centralized, SuzukiKasami, RicartAgrawala, Maekawa} {
			c, err := newCluster(a, star, 1, cluster.WithCSTime(sim.Hop/2), cluster.WithSeed(seed))
			if err != nil {
				return nil, err
			}
			workload.Closed{
				Requests: 8,
				Think:    workload.Exponential(think),
				Rng:      rand.New(rand.NewSource(seed)),
			}.Install(c)
			if err := c.Run(); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
			row = append(row, f2(metrics.MessagesPerEntry(c.Counts(), c.Entries())))
		}
		t.AddRow(row...)
	}
	return t, nil
}
