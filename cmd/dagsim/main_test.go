package main

import (
	"strings"
	"testing"
	"time"
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
}

func TestBuildTreeShapes(t *testing.T) {
	cases := map[string]int{"star": 9, "line": 9, "binary": 9, "radiating": 9, "random": 9}
	for shape, n := range cases {
		tree, err := buildTree(shape, n, 1)
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		if tree.N() != n {
			t.Fatalf("%s: N = %d, want %d", shape, tree.N(), n)
		}
	}
}

func TestRunVirtualReportsEventCost(t *testing.T) {
	var b strings.Builder
	if err := runVirtual(&b, "star", 20, 1, 5, 10*time.Second, 7, false); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"virtual time", "star (N=20, D=2)", "messages / entry", "events", "ns wall / event"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}
