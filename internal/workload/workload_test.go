package workload

import (
	"math/rand"
	"testing"
	"time"

	"dagmutex/internal/cluster"
	"dagmutex/internal/core"
	"dagmutex/internal/mutex"
	"dagmutex/internal/sim"
	"dagmutex/internal/topology"
)

func newStarCluster(t *testing.T, n int, opts ...cluster.Option) *cluster.Cluster {
	t.Helper()
	tree := topology.Star(n)
	cfg := mutex.Config{IDs: tree.IDs(), Holder: 1, Parent: tree.ParentsToward(1)}
	c, err := cluster.New(core.Builder, cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClosedDeliversExactRequestCounts(t *testing.T) {
	c := newStarCluster(t, 6)
	Closed{Requests: 4, Think: Fixed(2 * sim.Hop)}.Install(c)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	perNode := make(map[mutex.ID]int)
	for _, g := range c.Grants() {
		perNode[g.Node]++
	}
	for _, id := range c.IDs() {
		if perNode[id] != 4 {
			t.Fatalf("node %d got %d entries, want 4", id, perNode[id])
		}
	}
}

func TestClosedSubsetOnly(t *testing.T) {
	c := newStarCluster(t, 6)
	Closed{Nodes: []mutex.ID{2, 3}, Requests: 3}.Install(c)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	perNode := make(map[mutex.ID]int)
	for _, g := range c.Grants() {
		perNode[g.Node]++
	}
	if perNode[2] != 3 || perNode[3] != 3 {
		t.Fatalf("per-node entries = %v", perNode)
	}
	if perNode[1] != 0 || perNode[4] != 0 {
		t.Fatalf("non-participants entered the CS: %v", perNode)
	}
}

func TestClosedZeroRequestsIsNoop(t *testing.T) {
	c := newStarCluster(t, 3)
	Closed{Requests: 0}.Install(c)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Entries() != 0 {
		t.Fatalf("entries = %d, want 0", c.Entries())
	}
}

func TestHeavyLoadNeverViolatesOneOutstanding(t *testing.T) {
	// Heavy() re-requests instantly at release time; the cluster would
	// fail the run if a duplicate outstanding request ever appeared.
	c := newStarCluster(t, 8, cluster.WithCSTime(sim.Hop/4))
	Closed{Requests: 25, Think: Heavy()}.Install(c)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Entries(), 25*8; got != want {
		t.Fatalf("entries = %d, want %d", got, want)
	}
}

func TestThinkTimeDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if d := Fixed(7)(rng); d != 7 {
		t.Fatalf("Fixed = %d", d)
	}
	if d := Heavy()(rng); d != 0 {
		t.Fatalf("Heavy = %d", d)
	}
	for i := 0; i < 100; i++ {
		if d := UniformBetween(10, 20)(rng); d < 10 || d > 20 {
			t.Fatalf("UniformBetween out of range: %d", d)
		}
		if d := Exponential(50)(rng); d < 0 {
			t.Fatalf("Exponential negative: %d", d)
		}
	}
	if d := UniformBetween(9, 9)(rng); d != 9 {
		t.Fatalf("degenerate UniformBetween = %d", d)
	}
}

// TestOpenStridesRequestersAndStopsAtDuration: Open drives only its
// evenly strided requesters, releases each grant after Hold, and issues
// no request at or past Duration.
func TestOpenStridesRequestersAndStopsAtDuration(t *testing.T) {
	c := newStarCluster(t, 6, cluster.WithoutAutoRelease())
	if _, err := (Open{}).Install(c, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("open loop without a duration accepted")
	}
	w, err := Open{Duration: 10 * time.Second, Requesters: 2, Think: 100 * time.Millisecond}.Install(c, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if w.Hold != 5*time.Millisecond {
		t.Fatalf("default hold = %v, want 5ms", w.Hold)
	}
	perNode := make(map[mutex.ID]int)
	c.OnGrant(func(g cluster.Grant) {
		perNode[g.Node]++
		if g.ReqAt >= sim.Time(w.Duration) {
			t.Errorf("node %d requested at %d, past the run's end", g.Node, g.ReqAt)
		}
	})
	if _, err := c.RunFor(sim.Time(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if len(perNode) != 2 || perNode[1] < 50 || perNode[4] < 50 {
		t.Fatalf("per-node entries = %v, want nodes 1 and 4 only, ~100 each", perNode)
	}
}
