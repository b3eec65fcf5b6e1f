// Command dagbench regenerates every table and figure of the thesis's
// Chapter 6 performance analysis, printing paper-style tables (or CSV,
// or JSON for machine consumption) for: the §6.1 upper bounds, the §6.2
// average and heavy-demand bounds, the §6.3 synchronization delays, the
// §6.4 storage overheads, the topology sweep behind Figures 1/8, and the
// load-sweep ablation. Every experiment runs on the discrete-event
// simulator, so the tables are exact per seed. The live stack is
// measured by the repository benchmark, go run ./bench.
//
// Usage:
//
//	dagbench                          # run every experiment
//	dagbench -exp 6.2                 # one experiment (6.1, 6.2, 6.2-placement, 6.2-heavy, 6.3, 6.4, topo, load)
//	dagbench -csv                     # machine-readable CSV output
//	dagbench -json                    # machine-readable JSON output
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dagmutex/internal/harness"
	"dagmutex/internal/sim"
)

func main() {
	exp := flag.String("exp", "all",
		"experiment(s) to run, comma-separated: 6.1, 6.2, 6.2-placement, 6.2-heavy, 6.3, 6.4, topo, load, all")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := flag.Bool("json", false, "emit one JSON array of result tables (overrides -csv)")
	seed := flag.Int64("seed", 1, "random seed for randomized scenarios")
	flag.Parse()

	if err := run(os.Stdout, *exp, *csv, *jsonOut, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "dagbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, exp string, csv, jsonOut bool, seed int64) error {
	experiments := []struct {
		key string
		gen func() (*harness.Table, error)
	}{
		{"6.1", func() (*harness.Table, error) { return harness.UpperBound([]int{9, 16, 25}) }},
		{"6.2", func() (*harness.Table, error) { return harness.AverageBound([]int{5, 10, 20, 50, 100, 200}) }},
		{"6.2-placement", func() (*harness.Table, error) { return harness.TokenPlacement([]int{5, 10, 20, 50, 100}) }},
		{"6.2-heavy", func() (*harness.Table, error) { return harness.HeavyDemand([]int{5, 10, 20, 40}) }},
		{"6.3", harness.SyncDelay},
		{"6.4", func() (*harness.Table, error) { return harness.Storage(25) }},
		{"topo", func() (*harness.Table, error) { return harness.TopologySweep(13, seed) }},
		{"load", func() (*harness.Table, error) {
			thinks := []sim.Time{0, sim.Hop, 5 * sim.Hop, 20 * sim.Hop, 100 * sim.Hop, 500 * sim.Hop}
			return harness.LoadSweep(15, thinks, seed)
		}},
	}

	// Validate the whole -exp list up front, so "6.2,bogus" fails with a
	// clear one-line error instead of running half the list first.
	keys := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		keys = append(keys, e.key)
	}
	keys = append(keys, "all")
	valid := strings.Join(keys, ", ")
	selected := map[string]bool{}
	for _, part := range strings.Split(exp, ",") {
		part = strings.ToLower(strings.TrimSpace(part))
		if part == "" {
			continue
		}
		known := false
		for _, k := range keys {
			known = known || part == k
		}
		if !known {
			return fmt.Errorf("unknown experiment %q (want %s)", part, valid)
		}
		selected[part] = true
	}
	if len(selected) == 0 {
		return fmt.Errorf("empty -exp list (want %s)", valid)
	}

	// JSON is one array, so tables accumulate and emit at the end; the
	// table/CSV modes stream each experiment as it completes.
	var tables []*harness.Table
	for _, e := range experiments {
		if !selected[e.key] && !selected["all"] {
			continue
		}
		tbl, err := e.gen()
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.key, err)
		}
		switch {
		case jsonOut:
			tables = append(tables, tbl)
		case csv:
			fmt.Fprintf(w, "# %s: %s\n%s\n", tbl.ID, tbl.Title, tbl.CSV())
		default:
			fmt.Fprintf(w, "%s\n", tbl.Format())
		}
	}
	if !jsonOut {
		return nil
	}
	b, err := harness.TablesJSON(tables)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
