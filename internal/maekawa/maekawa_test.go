package maekawa

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dagmutex/internal/cluster"
	"dagmutex/internal/conformance"
	"dagmutex/internal/metrics"
	"dagmutex/internal/mutex"
	"dagmutex/internal/sim"
)

func idRange(n int) []mutex.ID {
	ids := make([]mutex.ID, n)
	for i := range ids {
		ids[i] = mutex.ID(i + 1)
	}
	return ids
}

func gridConfig(n int, _ mutex.ID) mutex.Config {
	ids := idRange(n)
	q, err := GridQuorums(ids)
	if err != nil {
		panic(err)
	}
	return mutex.Config{IDs: ids, Quorums: q}
}

func fppConfig(n int) mutex.Config {
	ids := idRange(n)
	q, err := FPPQuorums(ids)
	if err != nil {
		panic(err)
	}
	return mutex.Config{IDs: ids, Quorums: q}
}

func TestConformanceGrid(t *testing.T) {
	conformance.Run(t, conformance.Factory{
		Name:    "maekawa-grid",
		Builder: Builder,
		Config:  gridConfig,
		Sizes:   []int{2, 4, 9, 12},
	})
}

func TestConformanceFPP(t *testing.T) {
	conformance.Run(t, conformance.Factory{
		Name:    "maekawa-fpp",
		Builder: Builder,
		Config:  func(n int, _ mutex.ID) mutex.Config { return fppConfig(n) },
		Sizes:   []int{7, 13},
	})
}

func TestUncontendedEntryCostsThreeKMinusOne(t *testing.T) {
	// Best case §2.6: (K−1) REQUESTs, (K−1) LOCKEDs, (K−1) RELEASEs where
	// K is the quorum size (the self vote is local).
	cfg := fppConfig(13) // K = 4
	c, err := cluster.New(Builder, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 5)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	k := len(cfg.Quorums[5])
	want := int64(3 * (k - 1))
	if got := c.Counts().Messages; got != want {
		t.Fatalf("messages = %d, want %d (3(K-1), K=%d)", got, want, k)
	}
}

func TestMessageCostIsOrderSqrtN(t *testing.T) {
	// Under contention the cost stays within Sanders' 7√N bound (counted
	// per entry on average) and far below Ricart–Agrawala's 2(N−1).
	const n = 49
	c, err := cluster.New(Builder, gridConfig(n, 1), cluster.WithCSTime(sim.Hop))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i, id := range c.IDs() {
			c.RequestAt(c.Now()+sim.Time(i%7)*sim.Hop, id)
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
	}
	per := metrics.MessagesPerEntry(c.Counts(), c.Entries())
	bound := 7 * math.Sqrt(n) * 1.15 // grid quorums are ~2√N, slightly above K=√N
	if per > bound {
		t.Fatalf("messages per entry = %.1f, exceeds %.1f (≈7√N)", per, bound)
	}
	if per >= float64(2*(n-1)) {
		t.Fatalf("messages per entry = %.1f, not better than RA's %d", per, 2*(n-1))
	}
}

func TestDeadlockProneScheduleResolves(t *testing.T) {
	// The classic Maekawa deadlock shape: simultaneous requests from nodes
	// whose quorums overlap pairwise. Sanders' FAIL/INQUIRE/RELINQUISH
	// machinery must untangle it; the cluster Run detects any deadlock.
	for seed := int64(1); seed <= 10; seed++ {
		c, err := cluster.New(Builder, gridConfig(9, 1), cluster.WithCSTime(sim.Hop))
		if err != nil {
			t.Fatal(err)
		}
		// All nine nodes request at the same instant.
		for _, id := range c.IDs() {
			c.RequestAt(0, id)
		}
		if err := c.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if c.Entries() != 9 {
			t.Fatalf("seed %d: entries = %d, want 9", seed, c.Entries())
		}
	}
}

func TestPriorityPreemptsLocks(t *testing.T) {
	// A later-stamped request that grabbed a shared member's lock must be
	// preempted (INQUIRE + RELINQUISH) by an earlier-stamped one. The run
	// succeeding with both entries proves the preemption path executes;
	// seeing at least one RELINQUISH proves it was exercised.
	var relinquishes int64
	found := false
	for seed := int64(1); seed <= 20 && !found; seed++ {
		c, err := cluster.New(Builder, gridConfig(9, 1),
			cluster.WithCSTime(2*sim.Hop),
			cluster.WithNetworkOptions(sim.WithLatency(sim.UniformLatency(rand.New(rand.NewSource(seed)), sim.Hop/2, 4*sim.Hop))))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range c.IDs() {
			c.RequestAt(0, id)
		}
		if err := c.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		relinquishes = c.Counts().ByKind["RELINQUISH"]
		if relinquishes > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no schedule exercised the RELINQUISH path; preemption untested")
	}
}

func TestProtocolErrors(t *testing.T) {
	env := nopEnv{}
	cfg := gridConfig(4, 1)
	n, err := New(1, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Release(); !errors.Is(err, mutex.ErrNotInCS) {
		t.Fatalf("Release = %v", err)
	}
	if err := n.Deliver(2, lockedMsg{}); !errors.Is(err, mutex.ErrUnexpectedMessage) {
		t.Fatalf("stray LOCKED = %v", err)
	}
	if _, err := New(1, env, mutex.Config{IDs: idRange(4)}); !errors.Is(err, mutex.ErrBadConfig) {
		t.Fatalf("missing quorums = %v", err)
	}
	badQ := map[mutex.ID][]mutex.ID{1: {2, 3}, 2: {2}, 3: {3}, 4: {4}}
	if _, err := New(1, env, mutex.Config{IDs: idRange(4), Quorums: badQ}); !errors.Is(err, mutex.ErrBadConfig) {
		t.Fatalf("self-less quorum = %v", err)
	}
}

type nopEnv struct{}

func (nopEnv) Send(mutex.ID, mutex.Message) {}
func (nopEnv) Granted(uint64)               {}
