package cluster_test

import (
	"testing"

	"dagmutex/internal/cluster"
	"dagmutex/internal/core"
	"dagmutex/internal/metrics"
	"dagmutex/internal/mutex"
	"dagmutex/internal/sim"
	"dagmutex/internal/topology"
)

// TestMaxStorageSampling: the §6.4 storage measurement is a view over
// the cluster's grant and release hooks (metrics.WatchStorage), not a
// sweep the cluster makes on every grant; it must still see every node
// at every boundary.
func TestMaxStorageSampling(t *testing.T) {
	tree := topology.Star(5)
	cfg := mutex.Config{IDs: tree.IDs(), Holder: 1, Parent: tree.ParentsToward(1)}
	c, err := cluster.New(core.Builder, cfg)
	if err != nil {
		t.Fatal(err)
	}
	storage := metrics.WatchStorage(c)
	for i, id := range tree.IDs() {
		c.RequestAt(sim.Time(i)*sim.Hop, id)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	r := storage()
	if r.PerNodeMax.Scalars != 5 || r.Total.Scalars != 5*5 {
		t.Fatalf("max scalars = %d per node, %d in total, want 5 (HOLDING, NEXT, FOLLOW, generation, epoch) at each of 5 nodes",
			r.PerNodeMax.Scalars, r.Total.Scalars)
	}
}
