package lockservice

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dagmutex/internal/mutex"
	"dagmutex/internal/runtime"
	"dagmutex/internal/telemetry"
)

// TestLockStatsSnapshotConsistency hammers acquires and releases while
// concurrently snapshotting Stats, and checks every snapshot is an
// internally consistent cut: releases never exceed grants, the gap is
// bounded by the number of slots that can hold concurrently, and the
// totals equal the per-shard sums. Before the counters were folded
// under one lock, field-by-field reads could observe a release that its
// own grant had not reached yet; under the race detector this test also
// proves the counter updates are properly synchronized. Half the workers
// hold the way a dialed connection with a crowd behind it does — a run,
// ended with a varying share of it handed out — whose locally rotated
// grants reach the counters only with the run's release, all in one cut.
func TestLockStatsSnapshotConsistency(t *testing.T) {
	const (
		shards  = 2
		nodes   = 3
		workers = 6
		ops     = 150
	)
	svc, err := New(Config{Shards: shards, Nodes: nodes, Lease: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	stop := make(chan struct{})
	var snapErr error
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := svc.Stats()
			var sumGrants, sumReleases int64
			for _, ss := range st.PerShard {
				sumGrants += ss.Grants
				sumReleases += ss.Releases
				if ss.Releases+ss.Expired > ss.Grants {
					snapErr = fmt.Errorf("shard %d: releases %d + expired %d > grants %d",
						ss.Shard, ss.Releases, ss.Expired, ss.Grants)
					return
				}
				if gap := ss.Grants - ss.Releases - ss.Expired; gap > nodes {
					snapErr = fmt.Errorf("shard %d: %d grants unaccounted for (max %d slots can hold)",
						ss.Shard, gap, nodes)
					return
				}
				if ss.Regrants > ss.Releases {
					snapErr = fmt.Errorf("shard %d: regrants %d > releases %d", ss.Shard, ss.Regrants, ss.Releases)
					return
				}
			}
			if sumGrants != st.Grants || sumReleases != st.Releases {
				snapErr = fmt.Errorf("totals diverge from per-shard sums: %d/%d vs %d/%d",
					st.Grants, st.Releases, sumGrants, sumReleases)
				return
			}
		}
	}()

	var handed atomic.Int64 // fences callers were given: the ledger Grants must match
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := svc.On(mutex.ID(1 + w%nodes))
			if err != nil {
				t.Error(err)
				return
			}
			resource := fmt.Sprintf("res-%d", w%4)
			for i := 0; i < ops; i++ {
				if w%2 == 1 {
					b := clientBackend{c: cl}
					first, _, run, err := b.AcquireRun(context.Background(), resource)
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					used := 1 + i%run
					handed.Add(int64(used))
					if err := b.ReleaseRun(resource, first+uint64(run-1), used, false); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					continue
				}
				h, err := cl.Acquire(context.Background(), resource)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				handed.Add(1)
				if err := cl.ReleaseHold(h); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	if snapErr != nil {
		t.Fatal(snapErr)
	}

	st := svc.Stats()
	if st.Grants != st.Releases+st.Expired {
		t.Fatalf("at quiescence grants %d != releases %d + expired %d", st.Grants, st.Releases, st.Expired)
	}
	if st.Grants != handed.Load() {
		t.Fatalf("grants = %d, want the %d fences handed out", st.Grants, handed.Load())
	}
}

// TestStatsWaitCountWithinGrants snapshots Stats while plain holds and
// runs go on, and checks every per-shard row records a wait for at most
// the grants it counts (a run's locally rotated grants have none), in
// the same cut, and that the service-wide Wait counts every shard's.
func TestStatsWaitCountWithinGrants(t *testing.T) {
	const shards, nodes, ops = 2, 2, 200
	svc, err := New(Config{Shards: shards, Nodes: nodes, Lease: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var wg sync.WaitGroup
	for w := 0; w < 2*nodes; w++ {
		cl, err := svc.On(mutex.ID(1 + w%nodes))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := clientBackend{c: cl}
			resource := fmt.Sprintf("res-%d", w)
			for i := 0; i < ops; i++ {
				var err error
				if w%2 == 0 {
					var h Hold
					if h, err = cl.Acquire(context.Background(), resource); err == nil {
						err = cl.ReleaseHold(h)
					}
				} else {
					var first uint64
					var run int
					if first, _, run, err = b.AcquireRun(context.Background(), resource); err == nil {
						err = b.ReleaseRun(resource, first+uint64(run-1), 1+i%run, false)
					}
				}
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	check := func(st Stats) error {
		waits := 0
		for _, ss := range st.PerShard {
			if int64(ss.Wait.Count) > ss.Grants {
				return fmt.Errorf("shard %d: %d waits recorded for %d grants", ss.Shard, ss.Wait.Count, ss.Grants)
			}
			waits += ss.Wait.Count
		}
		if st.Wait.Count != waits {
			return fmt.Errorf("service-wide wait count %d, per-shard rows sum to %d", st.Wait.Count, waits)
		}
		return nil
	}
	for snaps := 0; ; snaps++ {
		select {
		case <-done:
			t.Logf("%d snapshots", snaps)
			return
		default:
		}
		if err := check(svc.Stats()); err != nil {
			t.Error(err)
			<-done
			return
		}
	}
}

// TestRunStatsCountFencesHandedOut: after k runs the counters hold what
// callers were given — not what was reserved, and not one per run — and
// a run's locally rotated grants, whose wait the member never saw, leave
// the wait record alone.
func TestRunStatsCountFencesHandedOut(t *testing.T) {
	svc, err := New(Config{Shards: 1, Nodes: 2, Lease: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cl, err := svc.On(1)
	if err != nil {
		t.Fatal(err)
	}
	b := clientBackend{c: cl}
	var grants, regrants int64
	reports := []int{9, 3, 1, 0, 1000} // the last two are cut to 1 and to the 9 reserved
	for _, used := range reports {
		first, _, run, err := b.AcquireRun(context.Background(), "res")
		if err != nil {
			t.Fatal(err)
		}
		if run != 1+runtime.DefaultCohortBudget {
			t.Fatalf("run of %d fences, want %d", run, 1+runtime.DefaultCohortBudget)
		}
		if err := b.ReleaseRun("res", first+uint64(run-1), used, false); err != nil {
			t.Fatal(err)
		}
		used = max(min(used, run), 1)
		grants += int64(used)
		regrants += int64(used - 1)
	}
	st := svc.Stats()
	if st.Grants != grants || st.Releases != grants || st.Regrants != regrants || st.Expired != 0 {
		t.Fatalf("after %d runs: grants %d releases %d regrants %d expired %d; want %d %d %d 0",
			len(reports), st.Grants, st.Releases, st.Regrants, st.Expired, grants, grants, regrants)
	}
	if seen := st.PerShard[0].Wait.Count; seen != len(reports) {
		t.Fatalf("%d waits sampled, want one per run (%d)", seen, len(reports))
	}
}

// TestLockServiceTelemetryExport opens an instrumented service, drives
// it, and checks the registry exports live per-shard counters and wait
// quantiles while the trace stream carries shard-tagged grant events
// with strictly monotonic fences.
func TestLockServiceTelemetryExport(t *testing.T) {
	const nodes = 2
	reg := telemetry.NewRegistry()
	var mu sync.Mutex
	var grantsPerShard [2][]uint64
	var lifecycle []telemetry.TraceEvent
	svc, err := New(Config{
		Shards: 2, Nodes: nodes, Lease: time.Minute,
		Telemetry: reg,
		TraceObserver: func(e telemetry.TraceEvent) {
			mu.Lock()
			defer mu.Unlock()
			switch e.Kind {
			case telemetry.TraceGrant:
				grantsPerShard[e.Shard] = append(grantsPerShard[e.Shard], e.Fence)
			case telemetry.TraceRelease, telemetry.TraceRegrant, telemetry.TraceExpire:
				lifecycle = append(lifecycle, e)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	const ops = 40
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, _ := svc.On(mutex.ID(1 + w%nodes))
			resource := fmt.Sprintf("key-%d", w)
			for i := 0; i < ops; i++ {
				h, err := cl.Acquire(context.Background(), resource)
				if err != nil {
					t.Error(err)
					return
				}
				if err := cl.ReleaseHold(h); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := svc.Stats()
	if st.Grants != 4*ops || st.Releases != 4*ops {
		t.Fatalf("grants/releases = %d/%d, want %d each", st.Grants, st.Releases, 4*ops)
	}

	mu.Lock()
	defer mu.Unlock()
	var traced int
	for shard, fences := range grantsPerShard {
		traced += len(fences)
		for i := 1; i < len(fences); i++ {
			if fences[i] <= fences[i-1] {
				t.Fatalf("shard %d: grant fence %d not above previous %d", shard, fences[i], fences[i-1])
			}
		}
	}
	if traced != 4*ops {
		t.Fatalf("trace stream carried %d grants, want %d", traced, 4*ops)
	}
	if len(lifecycle) != 4*ops {
		t.Fatalf("trace stream carried %d lifecycle events, want %d", len(lifecycle), 4*ops)
	}
	for _, e := range lifecycle {
		if e.Shard < 0 || !strings.HasPrefix(e.Detail, "key-") {
			t.Fatalf("lifecycle event missing shard/resource tag: %s", e)
		}
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`dagmutex_grants_total{shard="0"}`,
		`dagmutex_releases_total{shard="1"}`,
		`dagmutex_msgs_per_grant{shard="0"}`,
		`dagmutex_hops_per_grant{shard="1"}`,
		`dagmutex_acquire_wait_seconds{shard="0",quantile="0.99"}`,
		`dagmutex_hold_duration_seconds_count{shard="1"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics output missing %q", want)
		}
	}
	// The exported per-shard grant counters must sum to the true total.
	var exported int64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "dagmutex_grants_total{") {
			var v float64
			if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &v); err != nil {
				t.Fatalf("bad sample line %q", line)
			}
			exported += int64(v)
		}
	}
	if exported != 4*ops {
		t.Fatalf("exported grants_total sums to %d, want %d", exported, 4*ops)
	}
}
