package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/default.golden.txt from this build's run")

// TestDefaultScenarioMatchesCommittedGolden pins `dagsim` with no flags —
// the default hop-tick scenario (dag, star, N=15, 10 requests per node,
// think 10, cs 0.5, seed 1) — byte for byte, so a change to the
// simulator that moves one message or one tick of delay fails here.
// Regenerate (only for a change that means to move it) with
// go test ./cmd/dagsim -run TestDefaultScenarioMatchesCommittedGolden -update-golden.
func TestDefaultScenarioMatchesCommittedGolden(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "dag", "star", 15, 1, 10, 10, 0.5, 1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "default.golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("default scenario moved against %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
