package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"dagmutex/internal/harness"
	"dagmutex/internal/mutex"
	"dagmutex/internal/simharness"
)

// The -virtual mode is the open-loop scenario: the same simulator as the
// hop-tick mode, driven by internal/simharness in time.Duration terms —
// any of the nine protocols (for the DAG the core nodes the live runtime
// executes, epoch recovery included), seeded per-message delays,
// requesters that think and hold until the simulated duration ends.
// Simulated hours — crashes included — complete in wall-clock seconds,
// which is what makes the capacity sweep below practical.

// runVirtual executes one virtual-time scenario and prints a report in
// dagsim's usual text style.
func runVirtual(w io.Writer, algo, topo string, n, holder, requesters int, duration time.Duration, seed int64, compress bool) error {
	if listed(w, algo) {
		return nil
	}
	a, err := harness.ByName(algo)
	if err != nil {
		return err
	}
	h, err := simharness.New(simharness.Config{
		Algorithm: a,
		Nodes:     n,
		Topology:  topo,
		Holder:    mutex.ID(holder),
		Seed:      seed,
		Compress:  compress,
	})
	if err != nil {
		return err
	}
	r, err := h.Run(simharness.Workload{
		Duration:   duration,
		Requesters: requesters,
		Think:      time.Second,
		Hold:       5 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	tree := h.Topology()
	fmt.Fprintf(w, "mode                 virtual time\n")
	fmt.Fprintf(w, "algorithm            %s\n", a.Name)
	fmt.Fprintf(w, "topology             %s (N=%d, D=%d)\n", tree.Name(), tree.N(), tree.Diameter())
	fmt.Fprintf(w, "requesters           %d\n", r.Requesters)
	fmt.Fprintf(w, "simulated            %v in %v wall (%.0fx)\n",
		r.SimDuration, r.WallDuration.Round(time.Millisecond), speedup(r))
	fmt.Fprintf(w, "events               %d (%.0f ns wall / event)\n", r.Events, nsPerEvent(r))
	fmt.Fprintf(w, "entries              %d\n", r.Grants)
	fmt.Fprintf(w, "messages             %d\n", r.Messages)
	fmt.Fprintf(w, "messages / entry     %.3f\n", r.MsgsPerGrant)
	fmt.Fprintf(w, "entries / sim second %.1f\n", grantsPerSimSec(r))
	return nil
}

// capacityCell is one point of the sweep: a cluster size, a shard
// count and a requester population, simulated for a fixed duration.
type capacityCell struct {
	nodes, shards, requesters int
}

// runCapacity sweeps the capacity grid — nodes × shards × requesters —
// and writes the measurements as a BENCH-style JSON document (meta +
// tables) to out. Shards are independent DAG-token instances (exactly
// the lock service's architecture), so a cell with S shards runs S
// independent seeded harnesses and aggregates: throughput adds, the
// per-grant message cost stays per-shard.
func runCapacity(out string, duration time.Duration, seed int64) error {
	grid := []capacityCell{
		{100, 1, 10}, {100, 1, 25}, {100, 4, 25},
		{250, 1, 25}, {250, 4, 50},
		{500, 1, 50}, {500, 4, 100},
		{1000, 1, 100}, {1000, 4, 200}, {1000, 8, 400},
	}
	type row = []string
	rows := make([]row, 0, len(grid))
	for _, c := range grid {
		var grants, msgs int64
		var wall time.Duration
		for s := 0; s < c.shards; s++ {
			h, err := simharness.New(simharness.Config{
				Nodes: c.nodes,
				Seed:  seed + int64(s),
			})
			if err != nil {
				return err
			}
			r, err := h.Run(simharness.Workload{
				Duration:   duration,
				Requesters: c.requesters / c.shards,
				Think:      10 * time.Second,
				Hold:       5 * time.Millisecond,
			})
			if err != nil {
				return fmt.Errorf("cell %+v shard %d: %w", c, s, err)
			}
			grants += r.Grants
			msgs += r.Messages
			wall += r.WallDuration
		}
		perGrant := 0.0
		if grants > 0 {
			perGrant = float64(msgs) / float64(grants)
		}
		rows = append(rows, row{
			fmt.Sprintf("%d", c.nodes),
			fmt.Sprintf("%d", c.shards),
			fmt.Sprintf("%d", c.requesters),
			duration.String(),
			fmt.Sprintf("%d", grants),
			fmt.Sprintf("%.2f", perGrant),
			fmt.Sprintf("%.1f", float64(grants)/duration.Seconds()),
			fmt.Sprintf("%d", wall.Milliseconds()),
			fmt.Sprintf("%.0fx", float64(duration)*float64(c.shards)/float64(wall)),
		})
	}
	doc := map[string]any{
		"meta": map[string]any{
			"tool":   "dagsim -virtual -capacity",
			"go":     runtime.Version(),
			"goos":   runtime.GOOS,
			"goarch": runtime.GOARCH,
			"ncpu":   runtime.NumCPU(),
			"seed":   seed,
		},
		"tables": []map[string]any{{
			"id": "EXP-sim-capacity",
			"title": fmt.Sprintf(
				"virtual-time capacity curves: %v simulated per cell, think 10s, hold 5ms, kary4 trees", duration),
			"columns": []string{
				"nodes", "shards", "requesters", "sim-duration",
				"grants", "msgs/grant", "grants/sec(sim)", "wall-ms", "speedup",
			},
			"rows": rows,
		}},
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "-" || out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}

func speedup(r simharness.Report) float64 {
	if r.WallDuration <= 0 {
		return 0
	}
	return float64(r.SimDuration) / float64(r.WallDuration)
}

// nsPerEvent is the wall cost of one virtual-clock event with the
// protocol work it carried: the in-tree twin of bench's
// probe.vclock_event_ns.
func nsPerEvent(r simharness.Report) float64 {
	if r.Events == 0 {
		return 0
	}
	return float64(r.WallDuration) / float64(r.Events)
}

func grantsPerSimSec(r simharness.Report) float64 {
	if r.SimDuration <= 0 {
		return 0
	}
	return float64(r.Grants) / r.SimDuration.Seconds()
}
