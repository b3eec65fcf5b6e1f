package core_test

import (
	"math/rand"
	"testing"

	"dagmutex/internal/cluster"
	"dagmutex/internal/core"
	"dagmutex/internal/mutex"
	"dagmutex/internal/sim"
	"dagmutex/internal/topology"
)

// TestFaultFreeRunLeavesColdStateNil: a node allocates its recovery and
// INIT state only when a fault or Figure 5 INIT needs it, so a fault-free
// run on the engine — every member requesting, on random link latencies —
// leaves every node's cold pointer nil, and a cluster's heap is its hot
// nodes alone.
func TestFaultFreeRunLeavesColdStateNil(t *testing.T) {
	tree := topology.KAry(64, 4)
	cfg := mutex.Config{IDs: tree.IDs(), Holder: 1, Parent: tree.ParentsToward(1)}
	for _, build := range []mutex.Builder{
		core.Builder,
		func(id mutex.ID, env mutex.Env, cfg mutex.Config) (mutex.Node, error) {
			return core.New(id, env, cfg, core.WithPathCompression())
		},
	} {
		c, err := cluster.New(build, cfg,
			cluster.WithNetworkOptions(sim.WithLatency(sim.UniformLatency(rand.New(rand.NewSource(3)), 1, 10*sim.Hop))))
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			for i, id := range cfg.IDs {
				c.RequestAt(sim.Time(round*1_000_000+i), id)
			}
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if got, want := c.Entries(), 3*len(cfg.IDs); got != want {
			t.Fatalf("%d entries, want %d", got, want)
		}
		for _, id := range cfg.IDs {
			if core.HasColdState(c.Node(id).(*core.Node)) {
				t.Errorf("node %d allocated cold state in a fault-free run", id)
			}
		}
	}
}
