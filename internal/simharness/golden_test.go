package simharness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden.json from this build's runs")

// replayGolden is what one committed golden pins: the trace stream's
// digest plus the report's exact counters.
type replayGolden struct {
	TraceSHA256   string `json:"trace_sha256"`
	Grants        int64  `json:"grants"`
	Messages      int64  `json:"messages"`
	MaxFence      uint64 `json:"max_fence"`
	Recoveries    int64  `json:"recoveries"`
	Regenerations int64  `json:"regenerations"`
}

// TestReplayMatchesCommittedGolden is determinism across commits, where
// TestDeterministicReplay is determinism across two runs of one build:
// the goldens were recorded on the commit before the scheduler, clock
// and harness event plumbing were rewritten, so a change that moves one
// event — a seq taken elsewhere, an rng draw reordered — fails here.
// Regenerate (only for a change that means to move the schedule) with
// go test ./internal/simharness -run TestReplayMatchesCommittedGolden -update-golden.
func TestReplayMatchesCommittedGolden(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) (*Harness, Report)
	}{
		{"replay_120", func(t *testing.T) (*Harness, Report) {
			h := replayHarness(t)
			r, err := h.Run(replayWorkload)
			if err != nil {
				t.Fatal(err)
			}
			return h, r
		}},
		{"scale_1000", func(t *testing.T) (*Harness, Report) {
			h, err := New(Config{Nodes: 1000, Topology: "kary4", Seed: 1, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			r, err := h.Run(Workload{Duration: 2 * time.Minute, Requesters: 400, Think: time.Second, Hold: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			return h, r
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, r := tc.run(t)
			sum := sha256.Sum256([]byte(h.FormatTrace()))
			got := replayGolden{
				TraceSHA256:   hex.EncodeToString(sum[:]),
				Grants:        r.Grants,
				Messages:      r.Messages,
				MaxFence:      r.MaxFence,
				Recoveries:    r.Recoveries,
				Regenerations: r.Regenerations,
			}
			path := filepath.Join("testdata", tc.name+".golden.json")
			if *updateGolden {
				b, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var want replayGolden
			if err := json.Unmarshal(b, &want); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if got != want {
				t.Fatalf("run moved against %s:\n  got  %+v\n  want %+v", path, got, want)
			}
		})
	}
}
