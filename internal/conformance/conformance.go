// Package conformance is a reusable test battery that every mutual-
// exclusion protocol in this repository must pass: safety (the cluster
// monitor fails the run on overlapping critical sections), liveness (every
// request is eventually served; deadlock and livelock are detected),
// exact grant accounting, and randomized stress over seeds, loads and
// latency distributions.
//
// Each algorithm package's tests call Run with a Factory describing how to
// configure that protocol for a given cluster size.
package conformance

import (
	"fmt"
	"math/rand"
	"testing"

	"dagmutex/internal/check"
	"dagmutex/internal/cluster"
	"dagmutex/internal/mutex"
	"dagmutex/internal/sim"
	"dagmutex/internal/workload"
)

// Factory describes one protocol to the battery.
type Factory struct {
	// Name labels subtests.
	Name string
	// Builder constructs protocol nodes.
	Builder mutex.Builder
	// Config produces a cluster configuration for n nodes with the given
	// initial holder/coordinator (ignored by symmetric protocols).
	Config func(n int, holder mutex.ID) mutex.Config
	// Sizes lists the cluster sizes to exercise; defaults to {2, 3, 5, 9}.
	Sizes []int
	// BypassBound bounds, as a multiple of N, how many later-issued
	// requests may overtake an earlier one before the battery flags
	// starvation. Defaults to 3 (i.e. 3·N bypasses allowed).
	BypassBound int
}

func (f Factory) sizes() []int {
	if len(f.Sizes) > 0 {
		return f.Sizes
	}
	return []int{2, 3, 5, 9}
}

// largest returns the biggest configured size, used by subtests that need
// one representative cluster.
func (f Factory) largest() int {
	max := 0
	for _, n := range f.sizes() {
		if n > max {
			max = n
		}
	}
	return max
}

func (f Factory) bypassBound(n int) int {
	mult := f.BypassBound
	if mult == 0 {
		mult = 3
	}
	return mult * n
}

// Run executes the full battery.
func Run(t *testing.T, f Factory) {
	t.Helper()
	t.Run("SequentialRoundRobin", f.sequentialRoundRobin)
	t.Run("HolderReentry", f.holderReentry)
	t.Run("HeavyLoadAllNodes", f.heavyLoad)
	t.Run("PoissonRandomized", f.poisson)
	t.Run("RandomLatency", f.randomLatency)
	t.Run("WaitingRequesterServedAfterExit", f.waitingRequester)
}

// sequentialRoundRobin has every node enter once, strictly one at a time.
func (f Factory) sequentialRoundRobin(t *testing.T) {
	for _, n := range f.sizes() {
		cfg := f.Config(n, 1)
		c, err := cluster.New(f.Builder, cfg)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		gap := sim.Time(1000) * sim.Hop // far apart: no contention
		for i, id := range cfg.IDs {
			c.RequestAt(sim.Time(i)*gap, id)
		}
		if err := c.Run(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := c.Entries(); got != n {
			t.Fatalf("n=%d: entries = %d, want %d", n, got, n)
		}
		for i, g := range c.Grants() {
			if g.Node != cfg.IDs[i] {
				t.Fatalf("n=%d: grant %d went to node %d, want %d", n, i, g.Node, cfg.IDs[i])
			}
		}
	}
}

// holderReentry has the initial holder (or an arbitrary node, for
// symmetric protocols) enter repeatedly with no contention.
func (f Factory) holderReentry(t *testing.T) {
	cfg := f.Config(f.largest(), 2)
	c, err := cluster.New(f.Builder, cfg)
	if err != nil {
		t.Fatal(err)
	}
	workload.Closed{Nodes: []mutex.ID{2}, Requests: 10, Think: workload.Fixed(sim.Hop)}.Install(c)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.Entries(); got != 10 {
		t.Fatalf("entries = %d, want 10", got)
	}
}

// heavyLoad saturates every node (§6.2's heavy-demand regime).
func (f Factory) heavyLoad(t *testing.T) {
	for _, n := range f.sizes() {
		cfg := f.Config(n, 1)
		c, err := cluster.New(f.Builder, cfg, cluster.WithCSTime(sim.Hop/2))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		const perNode = 10
		workload.Closed{Requests: perNode}.Install(c)
		if err := c.Run(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got, want := c.Entries(), perNode*n; got != want {
			t.Fatalf("n=%d: entries = %d, want %d", n, got, want)
		}
		if err := check.BoundedBypass(c.Grants(), f.bypassBound(n)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// poisson runs randomized arrivals over several seeds.
func (f Factory) poisson(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			n := f.largest()
			cfg := f.Config(n, 3)
			c, err := cluster.New(f.Builder, cfg, cluster.WithCSTime(sim.Hop))
			if err != nil {
				t.Fatal(err)
			}
			workload.Closed{
				Requests: 8,
				Think:    workload.Exponential(4 * sim.Hop),
				Rng:      rand.New(rand.NewSource(seed * 977)),
			}.Install(c)
			if err := c.Run(); err != nil {
				t.Fatal(err)
			}
			if got, want := c.Entries(), 8*n; got != want {
				t.Fatalf("entries = %d, want %d", got, want)
			}
			if err := check.BoundedBypass(c.Grants(), f.bypassBound(n)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// randomLatency repeats the stress under non-uniform link delays (still
// FIFO per link, per the paper's model).
func (f Factory) randomLatency(t *testing.T) {
	n := f.largest()
	cfg := f.Config(n, 1)
	c, err := cluster.New(f.Builder, cfg,
		cluster.WithCSTime(sim.Hop),
		cluster.WithNetworkOptions(sim.WithLatency(sim.UniformLatency(rand.New(rand.NewSource(42)), sim.Hop/2, 3*sim.Hop))))
	if err != nil {
		t.Fatal(err)
	}
	workload.Closed{
		Requests: 6,
		Think:    workload.Exponential(2 * sim.Hop),
		Rng:      rand.New(rand.NewSource(7)),
	}.Install(c)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Entries(), 6*n; got != want {
		t.Fatalf("entries = %d, want %d", got, want)
	}
}

// waitingRequester checks the §6.3 scenario end to end: a request issued
// while another node occupies the CS is served after that node exits, and
// the grant is recorded as a waiting grant.
func (f Factory) waitingRequester(t *testing.T) {
	cfg := f.Config(f.largest(), 1)
	c, err := cluster.New(f.Builder, cfg, cluster.WithCSTime(100*sim.Hop))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 1)
	c.RequestAt(10*sim.Hop, 3) // lands well inside node 1's section
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	grants := c.Grants()
	if len(grants) != 2 {
		t.Fatalf("grants = %d, want 2", len(grants))
	}
	if grants[1].Node != 3 || !grants[1].Waited() {
		t.Fatalf("second grant %+v, want waiting grant at node 3", grants[1])
	}
}
