package main

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"dagmutex/internal/topology"
)

func TestRunDefaultScenario(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "dag", "star", 10, 1, 3, 5, 0.5, 1); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"algorithm", "dag", "star (N=10, D=2)", "messages / entry", "sync delay"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunListsAlgorithms(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "list", "star", 5, 1, 1, 0, 0.5, 1); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dag", "raymond", "maekawa", "lamport"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("algorithm list missing %q:\n%s", want, b.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "dag", "moebius", 5, 1, 1, 0, 0.5, 1); err == nil {
		t.Fatal("unknown topology accepted")
	}
	if err := run(&b, "quantum", "star", 5, 1, 1, 0, 0.5, 1); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if err := run(&b, "dag", "radiating", 2, 1, 1, 0, 0.5, 1); err == nil {
		t.Fatal("impossible radiating star accepted")
	}
	// -virtual runs the protocol -algo names, so a name it cannot run,
	// or -compress on a protocol other than the DAG, fails instead of
	// quietly running the DAG.
	if err := runVirtual(&b, "quantum", "star", 5, 1, 0, time.Second, 1, false); err == nil {
		t.Fatal("-virtual accepted an unknown algorithm")
	}
	if err := runVirtual(&b, "lamport", "star", 5, 1, 0, time.Second, 1, true); err == nil {
		t.Fatal("-virtual accepted -compress for lamport")
	}
}

// TestBuildTreeShapes: every name -topo accepts, in both modes, builds
// a tree of the requested size and shape.
func TestBuildTreeShapes(t *testing.T) {
	cases := []struct {
		shape, name string
		n           int
	}{
		{"star", "star", 9},
		{"line", "line", 9},
		{"binary", "2-ary", 9},
		{"kary2", "2-ary", 9},
		{"kary4", "4-ary", 9},
		{"", "4-ary", 9},
		{"kary8", "8-ary", 9},
		{"radial", "radial", 9},
		{"radiating", "radiating-star-4x2", 9},
		{"random", "random", 9},
	}
	for _, c := range cases {
		tree, err := topology.Named(c.shape, c.n, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%q: %v", c.shape, err)
		}
		if tree.N() != c.n || tree.Name() != c.name {
			t.Fatalf("%q: %s with N = %d, want %s with %d", c.shape, tree.Name(), tree.N(), c.name, c.n)
		}
	}
	var b strings.Builder
	if err := run(&b, "dag", "kary4", 9, 1, 1, 0, 0.5, 1); err != nil {
		t.Fatalf("hop mode on kary4: %v", err)
	}
	if err := runVirtual(&b, "dag", "radiating", 9, 1, 2, time.Second, 1, false); err != nil {
		t.Fatalf("virtual mode on radiating: %v", err)
	}
}

func TestRunVirtualReportsEventCost(t *testing.T) {
	var b strings.Builder
	if err := runVirtual(&b, "dag", "star", 20, 1, 5, 10*time.Second, 7, false); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"virtual time", "algorithm            dag", "star (N=20, D=2)", "messages / entry", "events", "ns wall / event"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}

	// Any protocol runs open-loop: Ricart–Agrawala's entry costs exactly
	// 2(N-1) messages, a REQUEST and a REPLY per peer.
	b.Reset()
	if err := runVirtual(&b, "ricart-agrawala", "star", 20, 1, 5, 10*time.Second, 7, false); err != nil {
		t.Fatal(err)
	}
	out = b.String()
	for _, want := range []string{"algorithm            ricart-agrawala", "messages / entry     38.000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}
