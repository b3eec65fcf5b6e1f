package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden.txt from this build's replays")

// TestReplaysMatchCommittedGoldens pins the four replays byte for byte:
// the tests beside this one look for landmarks in the output, which a
// reordered delivery or a changed table could still contain.
// Regenerate (only for a change that means to move a replay) with
// go test ./cmd/dagtrace -run TestReplaysMatchCommittedGoldens -update-golden.
func TestReplaysMatchCommittedGoldens(t *testing.T) {
	cases := []struct {
		name string
		run  func(io.Writer) error
	}{
		{"fig2", func(w io.Writer) error { return run(w, 2) }},
		{"fig6", func(w io.Writer) error { return run(w, 6) }},
		{"chaos", chaosDemo},
		{"live", liveDemo},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			if err := tc.run(&b); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".golden.txt")
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
				t.Fatalf("replay moved against %s:\n--- got\n%s--- want\n%s", path, got, want)
			}
		})
	}
}
