package main

import (
	"strings"
	"testing"

	"dagmutex/internal/core"
)

func TestFigure2Replay(t *testing.T) {
	var b strings.Builder
	if err := run(&b, 2); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Figure 2",
		"step 7", // initial table + six narrated steps
		"HOLDING_I",
		"PRIVILEGE",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure6ReplayShowsImplicitQueue(t *testing.T) {
	var b strings.Builder
	if err := run(&b, 6); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Step 9 of the thesis: the global waiting queue is 2, 1, 5.
	if !strings.Contains(out, "implicit queue (via FOLLOW chain): [2 1 5]") {
		t.Fatalf("missing the thesis's step-9 implicit queue:\n%s", out)
	}
	// Final state: node 5 keeps the token.
	if !strings.Contains(out, "HOLDING_5 = true") {
		t.Fatalf("missing final holding state:\n%s", out)
	}
	if c := strings.Count(out, "step "); c != 16 {
		t.Fatalf("steps printed = %d, want 16 (initial + 15 narrated)", c)
	}
}

func TestUnknownFigure(t *testing.T) {
	var b strings.Builder
	if err := run(&b, 5); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

// TestLiveDemoStreamsTraceVocabulary: the -live replay must print the
// structured live trace stream — each grant's causal chain in the
// telemetry vocabulary, fences increasing across grants.
func TestLiveDemoStreamsTraceVocabulary(t *testing.T) {
	var b strings.Builder
	if err := liveDemo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"node 4 REQUEST -> 3 origin=4",
		"node 3 FORWARD -> 2 origin=4 hops=1",
		"node 1 PRIVILEGE -> 4 origin=4 hops=3",
		"node 4 GRANT origin=4 fence=1 hops=3",
		"node 2 GRANT origin=2 fence=2",
		"HOLDING_I",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("live trace missing %q:\n%s", want, out)
		}
	}
}

// TestChaosDemoRendersRecovery: the -chaos replay must narrate the whole
// failure lifecycle — crash, suspicion, probe, regeneration with its
// fencing jump, reorientation — and end with the cluster serving grants
// again.
func TestChaosDemoRendersRecovery(t *testing.T) {
	var b strings.Builder
	if err := chaosDemo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// The recovery lines must come out in the unified trace vocabulary
	// (core.Event.Trace → telemetry.TraceEvent.String), the same strings
	// a live WithTraceObserver stream carries.
	for _, want := range []string{
		"CRASHED",
		"RECOVERY PEER-DOWN",
		"RECOVERY PROBE",
		"RECOVERY FREEZE",
		"RECOVERY REGENERATE",
		"RECOVERY REORIENT",
		"fence=1048576",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("chaos trace missing %q:\n%s", want, out)
		}
	}
	// The waiter's grant must show the regeneration jump.
	if !strings.Contains(out, "fencing generation 1048577") {
		t.Fatalf("chaos trace missing the regenerated grant generation:\n%s", out)
	}
}

func TestStateTableMatchesThesisLayout(t *testing.T) {
	snaps := []core.Snapshot{
		{ID: 1, Next: 2, Follow: 5},
		{ID: 2, Next: 5, Follow: 1},
		{ID: 3, Next: 2, Follow: 2},
		{ID: 4, Next: 3},
		{ID: 5},
		{ID: 6, Next: 4},
	}
	got := stateTable(snaps)
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), got)
	}
	if !strings.HasPrefix(lines[0], "I") ||
		!strings.HasPrefix(lines[1], "HOLDING_I") ||
		!strings.HasPrefix(lines[2], "NEXT_I") ||
		!strings.HasPrefix(lines[3], "FOLLOW_I") {
		t.Fatalf("unexpected rows:\n%s", got)
	}
	// Node 5's NEXT is 0 and renders blank, like the thesis tables.
	if strings.Contains(lines[2], "0") {
		t.Fatalf("nil NEXT should render blank:\n%s", got)
	}
	if !strings.Contains(lines[3], "5") {
		t.Fatalf("FOLLOW_1 = 5 missing:\n%s", got)
	}
}

func TestHoldingRendersTrueFlag(t *testing.T) {
	got := stateTable([]core.Snapshot{{ID: 1, Holding: true}, {ID: 2, Next: 1}})
	lines := strings.Split(got, "\n")
	if !strings.Contains(lines[1], "t") || strings.Count(lines[1], "f") != 1 {
		t.Fatalf("HOLDING row wrong:\n%s", got)
	}
}
