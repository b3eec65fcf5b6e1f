package simharness

import (
	"slices"
	"strings"
	"testing"
	"time"

	"dagmutex/internal/mutex"
	"dagmutex/internal/telemetry"
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

// TestChaosCrashDuringProbe kills a second member while the coordinator's
// PROBE round for the first crash is still collecting acknowledgments,
// before the victim has acknowledged: the round must restart around the
// new death once it is detected, not hang awaiting a corpse.
func TestChaosCrashDuringProbe(t *testing.T) {
	const victim = 25
	r := crashDuringFirstRecovery(t, 5, victim, func(r round) bool {
		return !r.collected && !r.acked[victim]
	})
	if r.Recoveries == 0 || r.Grants < 500 {
		t.Fatalf("cluster did not recover through the mid-probe crash: %+v", r)
	}
}

// TestChaosCoordinatorCrash kills the recovery coordinator (the
// highest-ID survivor, node 50) right after it starts collecting: the
// next survivor must take over the round.
func TestChaosCoordinatorCrash(t *testing.T) {
	const victim = 50
	r := crashDuringFirstRecovery(t, 9, victim, func(r round) bool {
		return r.coord == victim && !r.collected
	})
	if r.Recoveries < 2 {
		t.Fatalf("coordinator handover did not restart the round: %+v", r)
	}
	if r.Grants < 500 {
		t.Fatalf("cluster did not keep granting through the handover: %+v", r)
	}
}

// TestChaosCrashDuringReorient lands a crash when the PROBE
// acknowledgments are back and the REORIENT installs are going out —
// the victim's still in flight — exercising the tail of the epoch
// machinery.
func TestChaosCrashDuringReorient(t *testing.T) {
	const victim = 30
	r := crashDuringFirstRecovery(t, 13, victim, func(r round) bool {
		return r.collected && r.acked[victim] && !r.installed[victim]
	})
	if r.Recoveries == 0 || r.Grants < 500 {
		t.Fatalf("cluster did not recover through the mid-reorient crash: %+v", r)
	}
}

// crashDuringFirstRecovery runs one chaos scenario: 50 kary4 nodes
// under load for a minute, node 1 crashing at 10 s with its verdicts
// 150 ms later, and victim crashing at the first instant the recovery
// of node 1 is in the phase in. That instant is read off a traced
// pre-run with the first crash alone: up to the second crash the two
// runs are one run, event for event. The scenario's own trace must
// show the second crash in that phase.
func crashDuringFirstRecovery(t *testing.T, seed int64, victim mutex.ID, in func(round) bool) Report {
	t.Helper()
	run := func(schedule func(*Harness)) (*Harness, Report) {
		h, err := New(Config{Nodes: 50, Seed: seed, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		h.ScheduleCrash(10*time.Second, 1, 150*time.Millisecond)
		schedule(h)
		r, err := h.Run(Workload{Duration: time.Minute, Think: 300 * time.Millisecond, Hold: 2 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return h, r
	}
	inPhase := func(trace []TraceRecord, at time.Duration) bool {
		r, ok := recoveryAt(trace, at)
		return ok && r.dead == 1 && in(r)
	}
	pre, _ := run(func(*Harness) {})
	trace := pre.Trace()
	first := slices.IndexFunc(trace, func(r TraceRecord) bool { return r.Ev.Detail == "PROBE" })
	if first < 0 {
		t.Fatal("the crash of node 1 started no probe round")
	}
	at := time.Duration(-1)
	for i := first + 1; i < len(trace) && at < 0; i++ {
		if mid := (trace[i-1].At + trace[i].At) / 2; inPhase(trace, mid) {
			at = mid
		}
	}
	if at < 0 {
		t.Fatal("the recovery of node 1 never reached the phase")
	}
	h, r := run(func(h *Harness) { h.ScheduleCrash(at, victim, 150*time.Millisecond) })
	if !inPhase(h.Trace(), at) {
		got, _ := recoveryAt(h.Trace(), at)
		t.Fatalf("the crash of node %d at %v missed its phase: %+v", victim, at, got)
	}
	return r
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

// round is the recovery round a traced run was in at some instant: the
// last probe round started before it (its coordinator, the death it
// recovers from, its epoch), whether the coordinator had every
// acknowledgment by then (it regenerated or adopted), which survivors
// had acknowledged (frozen) and which had applied their REORIENT.
type round struct {
	coord, dead mutex.ID
	epoch       uint32
	collected   bool
	acked       map[mutex.ID]bool
	installed   map[mutex.ID]bool
}

// recoveryAt reads the round in progress just before at from trace; ok
// is false when no probe round had started by then.
func recoveryAt(trace []TraceRecord, at time.Duration) (r round, ok bool) {
	for _, rec := range trace {
		e := rec.Ev
		if rec.At >= at {
			break
		}
		if e.Kind != telemetry.TraceRecovery || (ok && e.Detail != "PROBE" && e.Epoch != r.epoch) {
			continue
		}
		switch e.Detail {
		case "PROBE":
			r, ok = round{coord: e.Node, dead: e.Peer, epoch: e.Epoch,
				acked: map[mutex.ID]bool{}, installed: map[mutex.ID]bool{}}, true
		case "FREEZE":
			r.acked[e.Node] = true
		case "REGENERATE", "ADOPT":
			r.collected = r.collected || e.Node == r.coord
		case "REORIENT":
			r.installed[e.Node] = true
		}
	}
	return r, ok
}
