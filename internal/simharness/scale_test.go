//go:build !race

package simharness

import (
	"testing"
	"time"
)

// TestBuildHundredThousandNodes is the set-up's scale guard: building a
// cluster must stay linear in its size. 100 000 kary4 members build in
// ~0.07 s on a 2-core x86-64 VM; when each node rescanned the whole ID
// list the same build took ~11 s. Skipped under -short.
func TestBuildHundredThousandNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("100 000-node build; run without -short")
	}
	start := time.Now()
	h, err := New(Config{Nodes: 100_000, Topology: "kary4", Seed: 1})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("100000-node New took %v", wall)
	if got := len(h.c.IDs()); got != 100_000 {
		t.Fatalf("built %d members, want 100000", got)
	}
	if wall > 3*time.Second {
		t.Errorf("100000-node New took %v, want <= 3s (cluster set-up is no longer linear)", wall)
	}
}
