package harness

import (
	"math/rand"
	"testing"

	"dagmutex/internal/cluster"
	"dagmutex/internal/mutex"
	"dagmutex/internal/sim"
	"dagmutex/internal/topology"
	"dagmutex/internal/workload"
)

// The EXT-fifo ablation: the thesis's system model assumes per-sender
// FIFO channels. These tests remove the simulator's FIFO clamp and show
// (a) a protocol whose correctness visibly depends on the assumption —
// Maekawa's lock/relinquish handshake — fails with a *detected* protocol
// violation under a deterministic reordering schedule, and (b) the other
// protocols tolerated reordering across randomized schedules, with every
// run still passing the safety and liveness monitors. (b) is an
// empirical observation about these schedules, not a proof; the paper's
// proofs use FIFO.

// nonFIFORun executes one heavy-demand run with reordering enabled.
func nonFIFORun(a Algorithm, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(6)
	tree := topology.Random(n, rng)
	holder := mutex.ID(rng.Intn(n) + 1)
	cfg, err := a.Configure(tree, holder)
	if err != nil {
		return err
	}
	c, err := cluster.New(a.Builder, cfg,
		cluster.WithCSTime(sim.Hop/4),
		cluster.WithNetworkOptions(
			sim.WithoutFIFO(),
			sim.WithLatency(sim.UniformLatency(rand.New(rand.NewSource(seed)), 1, 10*sim.Hop))))
	if err != nil {
		return err
	}
	workload.Closed{Requests: 8, Think: workload.Heavy(), Rng: rng}.Install(c)
	return c.Run()
}

// TestFIFOAssumptionViolationMaekawa pins the deterministic schedule in
// which message reordering breaks Maekawa's arbitration: a LOCKED vote
// for an already-relinquished request overtakes the messages that
// superseded it, and the requester rejects it as a protocol violation.
// With the FIFO clamp restored, the identical schedule passes.
func TestFIFOAssumptionViolationMaekawa(t *testing.T) {
	const seed = 28 // found by sweep; kept fixed as a regression anchor
	if err := nonFIFORun(Maekawa, seed); err == nil {
		t.Fatal("expected a detected protocol violation without FIFO links")
	}

	// Control: same seed, same latency spread, FIFO restored.
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(6)
	tree := topology.Random(n, rng)
	holder := mutex.ID(rng.Intn(n) + 1)
	cfg, err := Maekawa.Configure(tree, holder)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(Maekawa.Builder, cfg,
		cluster.WithCSTime(sim.Hop/4),
		cluster.WithNetworkOptions(sim.WithLatency(sim.UniformLatency(rand.New(rand.NewSource(seed)), 1, 10*sim.Hop))))
	if err != nil {
		t.Fatal(err)
	}
	workload.Closed{Requests: 8, Think: workload.Heavy(), Rng: rng}.Install(c)
	if err := c.Run(); err != nil {
		t.Fatalf("control run with FIFO failed: %v", err)
	}
}

// TestNonFIFOEmpiricalToleranceOthers documents that the remaining
// protocols completed every randomized non-FIFO schedule we threw at
// them with the monitors green. The DAG algorithm's apparent robustness
// comes from its edge-reversal discipline: consecutive messages on one
// link are almost always causally separated by a round trip.
func TestNonFIFOEmpiricalToleranceOthers(t *testing.T) {
	for _, a := range Algorithms() {
		if a.Name == Maekawa.Name {
			continue // provably sensitive; covered above
		}
		a := a
		t.Run(a.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 60; seed++ {
				if err := nonFIFORun(a, seed); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}
