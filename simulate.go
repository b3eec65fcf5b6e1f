package dagmutex

import (
	"fmt"
	"math/rand"

	"dagmutex/internal/cluster"
	"dagmutex/internal/harness"
	"dagmutex/internal/metrics"
	"dagmutex/internal/sim"
	"dagmutex/internal/workload"
)

// SimOptions parameterizes a deterministic simulation run.
type SimOptions struct {
	// Algorithm selects the protocol; see AlgorithmNames. Empty means the
	// paper's DAG algorithm.
	Algorithm string
	// RequestsPerNode is how many critical-section entries every node
	// performs (default 5).
	RequestsPerNode int
	// ThinkHops is the mean idle time between a node's entries, in
	// message hops. Zero is the thesis's heavy-demand regime.
	ThinkHops float64
	// CSTimeHops is the time spent inside the critical section, in hops
	// (default 0.5).
	CSTimeHops float64
	// Seed drives all randomness; runs with equal options and seed are
	// bit-identical (default 1).
	Seed int64
}

// SimResult summarizes one simulation run with the metrics Chapter 6 of
// the thesis reports.
type SimResult struct {
	// Algorithm and Nodes echo the configuration.
	Algorithm string
	Nodes     int
	// Entries is the number of completed critical-section entries.
	Entries int
	// Messages is the total protocol messages exchanged.
	Messages int64
	// MessagesPerEntry is the paper's primary cost metric.
	MessagesPerEntry float64
	// MeanSyncDelayHops and MaxSyncDelayHops summarize the §6.3 delays of
	// grants that were already waiting when the previous holder exited;
	// both are zero when no grant waited.
	MeanSyncDelayHops float64
	MaxSyncDelayHops  float64
	// MeanWaitHops is the average request-to-grant latency in hops.
	MeanWaitHops float64
}

// AlgorithmNames lists the protocols Simulate accepts, the paper's DAG
// algorithm first.
func AlgorithmNames() []string {
	algos := harness.Algorithms()
	names := make([]string, len(algos))
	for i, a := range algos {
		names[i] = a.Name
	}
	return names
}

// Simulate runs the chosen protocol on tree (token or coordinator at
// holder) under a closed-loop workload on the deterministic discrete-
// event simulator, validating safety and liveness throughout.
func Simulate(tree *Tree, holder ID, opts SimOptions) (SimResult, error) {
	name := opts.Algorithm
	if name == "" {
		name = "dag"
	}
	algo, err := harness.ByName(name)
	if err != nil {
		return SimResult{}, err
	}
	requests := opts.RequestsPerNode
	if requests <= 0 {
		requests = 5
	}
	csTime := sim.Time(opts.CSTimeHops * float64(sim.Hop))
	if opts.CSTimeHops == 0 {
		csTime = sim.Hop / 2
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}

	c, err := harness.NewCluster(algo, tree, holder, cluster.WithCSTime(csTime))
	if err != nil {
		return SimResult{}, err
	}
	workload.Closed{
		Requests: requests,
		Think:    workload.Exponential(sim.Time(opts.ThinkHops * float64(sim.Hop))),
		Rng:      rand.New(rand.NewSource(seed)),
	}.Install(c)
	if err := c.Run(); err != nil {
		return SimResult{}, fmt.Errorf("simulate %s: %w", name, err)
	}

	res := SimResult{
		Algorithm:        name,
		Nodes:            tree.N(),
		Entries:          c.Entries(),
		Messages:         c.Counts().Messages,
		MessagesPerEntry: metrics.MessagesPerEntry(c.Counts(), c.Entries()),
	}
	if ds := metrics.SyncDelays(c.Grants()); len(ds) > 0 {
		s := metrics.Summarize(ds)
		res.MeanSyncDelayHops = s.Mean
		res.MaxSyncDelayHops = s.Max
	}
	res.MeanWaitHops = metrics.Summarize(metrics.WaitTimes(c.Grants())).Mean
	return res, nil
}
