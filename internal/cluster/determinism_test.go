package cluster

import (
	"math/rand"
	"testing"

	"dagmutex/internal/core"
	"dagmutex/internal/mutex"
	"dagmutex/internal/sim"
	"dagmutex/internal/topology"
)

// TestDeterministicReplay is the reproducibility guarantee behind every
// experiment: two runs with identical options and seed produce identical
// grant logs and identical traffic, event for event.
func TestDeterministicReplay(t *testing.T) {
	runOnce := func(seed int64) ([]Grant, sim.Counts) {
		tree := topology.Random(12, rand.New(rand.NewSource(99)))
		cfg := mutex.Config{IDs: tree.IDs(), Holder: 5, Parent: tree.ParentsToward(5)}
		c, err := New(core.Builder, cfg,
			WithCSTime(sim.Hop),
			WithNetworkOptions(sim.WithLatency(sim.UniformLatency(rand.New(rand.NewSource(seed)), 1, 4*sim.Hop))))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for _, id := range tree.IDs() {
			for k := 0; k < 4; k++ {
				c.RequestAt(sim.Time(rng.Int63n(int64(200*sim.Hop)))+sim.Time(k)*300*sim.Hop, id)
			}
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return c.Grants(), c.Counts()
	}

	g1, c1 := runOnce(7)
	g2, c2 := runOnce(7)
	if len(g1) != len(g2) {
		t.Fatalf("grant counts differ: %d vs %d", len(g1), len(g2))
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatalf("grant %d differs: %+v vs %+v", i, g1[i], g2[i])
		}
	}
	if c1.Messages != c2.Messages || c1.Bytes != c2.Bytes {
		t.Fatalf("traffic differs: %+v vs %+v", c1, c2)
	}
	for k, v := range c1.ByKind {
		if c2.ByKind[k] != v {
			t.Fatalf("kind %s differs: %d vs %d", k, v, c2.ByKind[k])
		}
	}

	// A different seed changes message timings; the run must still
	// succeed (already checked inside runOnce) and very likely differs.
	g3, _ := runOnce(8)
	same := len(g3) == len(g1)
	if same {
		for i := range g1 {
			if g1[i] != g3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Log("note: different seed produced an identical schedule (possible but unlikely)")
	}
}
