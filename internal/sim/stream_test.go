package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// draws returns the next n values of r.
func draws(r *rand.Rand, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int63()
	}
	return out
}

// TestStreamIsAFunctionOfSeedAndName: a stream is fixed by its (seed,
// consumer) pair and by nothing else — not by how many streams exist, nor
// by what the others drew — and two pairs differing in either part give
// different sequences.
func TestStreamIsAFunctionOfSeedAndName(t *testing.T) {
	const n = 64
	want := draws(Stream(1, "delay"), n)
	if got := draws(Stream(1, "delay"), n); !slices.Equal(got, want) {
		t.Fatal("the same (seed, name) gave two sequences")
	}
	for _, other := range []struct {
		seed int64
		name string
	}{{1, "think"}, {1, "delay "}, {1, ""}, {2, "delay"}, {-1, "delay"}, {0, "delay"}} {
		if got := draws(Stream(other.seed, other.name), n); slices.Equal(got, want) {
			t.Errorf("(%d, %q) drew the same sequence as (1, \"delay\")", other.seed, other.name)
		}
	}

	// Interleave draws of every kind a run makes on other streams between
	// the draws of one: its sequence must not move.
	delay, think, verdict := Stream(1, "delay"), Stream(1, "think"), Stream(1, "verdict")
	for i := range n {
		think.ExpFloat64()
		if got := delay.Int63(); got != want[i] {
			t.Fatalf("draw %d of (1, \"delay\") moved when other streams drew between its draws", i)
		}
		verdict.Int63n(1000)
		think.Int63n(int64(i) + 1)
	}
}

// TestStreamFirstValuesArePinned pins the mapping from (seed, name) to a
// sequence. A change to it moves every simulator golden, so it must be a
// decision, not an accident: this test names it.
func TestStreamFirstValuesArePinned(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		name string
		want int64
	}{
		{1, "delay", 3767530024863122866},
		{7, "topology", 6461901657664076530},
	} {
		if got := Stream(tc.seed, tc.name).Int63(); got != tc.want {
			t.Errorf("Stream(%d, %q) starts at %d, want %d", tc.seed, tc.name, got, tc.want)
		}
	}
}
