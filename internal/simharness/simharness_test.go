package simharness

import (
	"strings"
	"testing"
	"time"

	"dagmutex/internal/mutex"
)

// TestConformanceTopologies runs a fault-free workload over every named
// topology: the invariant checker rides along (single holder, strictly
// monotonic fencing), and the run must actually grant.
func TestConformanceTopologies(t *testing.T) {
	for _, topo := range []string{"kary4", "kary8", "line", "star", "radial", "random"} {
		t.Run(topo, func(t *testing.T) {
			h, err := New(Config{Nodes: 25, Topology: topo, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			r, err := h.Run(Workload{Duration: time.Minute, Think: 500 * time.Millisecond, Hold: 2 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if r.Grants < 100 {
				t.Fatalf("only %d grants in a simulated minute on %s", r.Grants, topo)
			}
			if r.Recoveries != 0 || r.Regenerations != 0 {
				t.Fatalf("fault-free run recovered: %+v", r)
			}
		})
	}
}

// TestPathCompressionReducesHops: on a line (the worst tree), the
// compressed variant must need fewer messages per grant than the plain
// thesis rule under the same seed and workload.
func TestPathCompressionReducesHops(t *testing.T) {
	run := func(compress bool) Report {
		h, err := New(Config{Nodes: 40, Topology: "line", Seed: 11, Compress: compress})
		if err != nil {
			t.Fatal(err)
		}
		r, err := h.Run(Workload{Duration: time.Minute, Think: 200 * time.Millisecond, Hold: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	plain, compressed := run(false), run(true)
	if compressed.MsgsPerGrant >= plain.MsgsPerGrant {
		t.Fatalf("compression did not help: %.2f msgs/grant vs %.2f plain",
			compressed.MsgsPerGrant, plain.MsgsPerGrant)
	}
}

// TestChaosHolderCrashRegenerates: the initial token holder crashes
// while the cluster is busy — the token dies with it, the survivors
// must regenerate and keep granting, and the post-recovery fences must
// have jumped (the invariant checker would flag any regression).
func TestChaosHolderCrashRegenerates(t *testing.T) {
	h, err := New(Config{Nodes: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	h.ScheduleCrash(10*time.Second, 1, 150*time.Millisecond)
	r, err := h.Run(Workload{Duration: time.Minute, Think: 300 * time.Millisecond, Hold: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if r.Recoveries == 0 {
		t.Fatalf("holder crash triggered no recovery: %+v", r)
	}
	if r.Grants < 500 {
		t.Fatalf("cluster did not keep granting through the crash: %+v", r)
	}
}

// TestChaosCrashDuringProbe kills a second member inside the detection
// window of the first crash, so the second verdict lands while the
// coordinator's PROBE round is still collecting acknowledgments — the
// round must restart around the new death, not hang awaiting a corpse.
func TestChaosCrashDuringProbe(t *testing.T) {
	h, err := New(Config{Nodes: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// First crash detected at ~10s+150ms; the probe round then needs a
	// full delay-bounded round trip, so a crash 40ms after the verdicts
	// lands mid-collection.
	h.ScheduleCrash(10*time.Second, 1, 150*time.Millisecond)
	h.ScheduleCrash(10*time.Second+190*time.Millisecond, 25, 150*time.Millisecond)
	r, err := h.Run(Workload{Duration: time.Minute, Think: 300 * time.Millisecond, Hold: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if r.Recoveries == 0 || r.Grants < 500 {
		t.Fatalf("cluster did not recover through the mid-probe crash: %+v", r)
	}
}

// TestChaosCoordinatorCrash kills the recovery coordinator (the
// highest-ID survivor) right after it starts collecting: the next
// survivor must take over the round.
func TestChaosCoordinatorCrash(t *testing.T) {
	h, err := New(Config{Nodes: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	h.ScheduleCrash(10*time.Second, 1, 150*time.Millisecond)
	// Node 50 coordinates the recovery of node 1; kill it mid-round.
	h.ScheduleCrash(10*time.Second+200*time.Millisecond, 50, 150*time.Millisecond)
	r, err := h.Run(Workload{Duration: time.Minute, Think: 300 * time.Millisecond, Hold: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if r.Recoveries < 2 {
		t.Fatalf("coordinator handover did not restart the round: %+v", r)
	}
	if r.Grants < 500 {
		t.Fatalf("cluster did not keep granting through the handover: %+v", r)
	}
}

// TestChaosCrashDuringReorient lands a crash one round-trip after the
// verdicts — when the PROBE acknowledgments are back and the REORIENT
// installs are going out — exercising the tail of the epoch machinery.
func TestChaosCrashDuringReorient(t *testing.T) {
	h, err := New(Config{Nodes: 50, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	h.ScheduleCrash(10*time.Second, 1, 150*time.Millisecond)
	h.ScheduleCrash(10*time.Second+156*time.Millisecond, 30, 150*time.Millisecond)
	r, err := h.Run(Workload{Duration: time.Minute, Think: 300 * time.Millisecond, Hold: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if r.Recoveries == 0 || r.Grants < 500 {
		t.Fatalf("cluster did not recover through the mid-reorient crash: %+v", r)
	}
}

// TestChaosDoublePartition cuts two disjoint minorities off in
// sequence. Each isolated group loses its quorum and freezes (no
// second token is ever minted on a minority side — the split-brain
// gate); the shrinking majority excises both groups and keeps
// granting. The per-side invariant checker fails the run on any
// cross-side fence regression or double holder.
func TestChaosDoublePartition(t *testing.T) {
	h, err := New(Config{Nodes: 30, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	h.SchedulePartition(10*time.Second, []mutex.ID{26, 27, 28, 29, 30}, 150*time.Millisecond)
	h.SchedulePartition(25*time.Second, []mutex.ID{21, 22, 23, 24, 25}, 150*time.Millisecond)
	r, err := h.Run(Workload{Duration: time.Minute, Think: 300 * time.Millisecond, Hold: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if r.Grants < 300 {
		t.Fatalf("majority did not keep granting through two partitions: %+v", r)
	}
}

// TestSeededFaultBattery sweeps seeds over a fixed crash schedule: the
// point is breadth — every seed reshuffles delays, verdict jitter and
// workload timing, and the invariants must hold in all of them.
func TestSeededFaultBattery(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		h, err := New(Config{Nodes: 40, Topology: "random", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		h.ScheduleCrash(5*time.Second, mutex.ID(1+seed%40), 150*time.Millisecond)
		h.ScheduleCrash(15*time.Second, mutex.ID(1+(seed*7+3)%40), 150*time.Millisecond)
		r, err := h.Run(Workload{Duration: 30 * time.Second, Think: 300 * time.Millisecond, Hold: 2 * time.Millisecond})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.Grants < 100 {
			t.Fatalf("seed %d: only %d grants: %+v", seed, r.Grants, r)
		}
	}
}

// TestScaleThousandNodes is the headline acceptance: 1000 nodes living
// through simulated hours of churn — crashes included — in wall-clock
// seconds. The wall bound is deliberately loose (CI machines vary); the
// report's WallDuration documents the real ratio.
func TestScaleThousandNodes(t *testing.T) {
	nodes, simHours := 1000, 2*time.Hour
	if testing.Short() {
		simHours = 30 * time.Minute
	}
	h, err := New(Config{Nodes: nodes, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	h.ScheduleCrash(20*time.Minute, 1, 200*time.Millisecond)
	h.ScheduleCrash(40*time.Minute, 500, 200*time.Millisecond)
	r, err := h.Run(Workload{
		Duration:   simHours,
		Requesters: 200,
		Think:      30 * time.Second,
		Hold:       5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("scale report: %d nodes, %v simulated in %v wall (%.0fx), %d grants, %.2f msgs/grant, %d recoveries",
		r.Nodes, r.SimDuration, r.WallDuration,
		float64(r.SimDuration)/float64(r.WallDuration), r.Grants, r.MsgsPerGrant, r.Recoveries)
	if r.Grants < 1000 {
		t.Fatalf("scale run barely granted: %+v", r)
	}
	if r.WallDuration > time.Minute {
		t.Fatalf("simulated %v took %v wall — virtual time is not paying for itself", r.SimDuration, r.WallDuration)
	}
	if simHours >= 2*time.Hour && r.Recoveries == 0 {
		t.Fatalf("crashes scheduled but no recovery ran: %+v", r)
	}
}

// replayHarness is the replay tests' schedule: 120 nodes on a seeded
// random tree, two crashes and a partition, trace retained.
func replayHarness(t *testing.T) *Harness {
	t.Helper()
	h, err := New(Config{Nodes: 120, Topology: "random", Seed: 23, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	h.ScheduleCrash(5*time.Second, 1, 150*time.Millisecond)
	h.ScheduleCrash(12*time.Second, 60, 150*time.Millisecond)
	h.SchedulePartition(20*time.Second, []mutex.ID{101, 102, 103, 104, 105, 106, 107, 108, 109, 110}, 150*time.Millisecond)
	return h
}

var replayWorkload = Workload{Duration: 30 * time.Second, Think: 400 * time.Millisecond, Hold: 2 * time.Millisecond}

// TestDeterministicReplay is the determinism contract: the same seed,
// topology, workload and fault schedule produce a byte-identical trace
// stream at 120 nodes — run twice, diff.
func TestDeterministicReplay(t *testing.T) {
	run := func() string {
		h := replayHarness(t)
		if _, err := h.Run(replayWorkload); err != nil {
			t.Fatal(err)
		}
		return h.FormatTrace()
	}
	a, b := run(), run()
	if a == "" {
		t.Fatal("trace is empty")
	}
	if a != b {
		// Find the first divergence so the failure is diagnosable.
		la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
		for i := 0; i < len(la) && i < len(lb); i++ {
			if la[i] != lb[i] {
				t.Fatalf("trace diverges at line %d:\n  run1: %s\n  run2: %s", i+1, la[i], lb[i])
			}
		}
		t.Fatalf("traces differ in length: %d vs %d lines", len(la), len(lb))
	}
}

// TestHarnessRejectsReuse: one harness is one run.
func TestHarnessRejectsReuse(t *testing.T) {
	h, err := New(Config{Nodes: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(Workload{Duration: time.Second}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run(Workload{Duration: time.Second}); err == nil {
		t.Fatal("second Run on one harness succeeded")
	}
}
