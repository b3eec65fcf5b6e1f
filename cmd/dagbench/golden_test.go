package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/thesis.golden.csv from this build's run")

// TestThesisTablesMatchCommittedGolden pins every simulator experiment
// (`dagbench -csv`: §6.1–§6.4, the topology sweep, the load sweep) byte
// for byte. internal/harness's own tests check formulas and
// inequalities, which a shifted tie-break in the simulator would pass;
// this one fails when a single message count, delay or storage cell
// moves. Regenerate (only for a change that means to move a table) with
// go test ./cmd/dagbench -run TestThesisTablesMatchCommittedGolden -update-golden.
func TestThesisTablesMatchCommittedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every thesis table (~10s)")
	}
	var b strings.Builder
	if err := run(&b, "all", true, false, 1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "thesis.golden.csv")
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
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("thesis tables moved against %s at line %d:\n  got  %s\n  want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("thesis tables moved against %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
