// Command bench is the repository's benchmark: seven named workloads,
// nine end-to-end metrics, and a traced pass that splits the paper's
// synchronization delay into a per-layer budget. README.md in this
// directory is the manual; BENCHMARK.json at the repository root is the
// contract the builder's driver runs it under.
//
//	go run ./bench                                  # the whole suite
//	go run ./bench -workload member_tcp_travel -out run.json
//	go run ./bench -compare a.json b.json
//	go run ./bench --workload sim_scale --seed 3 --seconds 9 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// traceMode selects the passes of one invocation.
type traceMode int

const (
	modeBoth     traceMode = iota // untraced end-to-end pass, then the traced pass
	modeUntraced                  // -trace 0: end-to-end metrics only
	modeTraced                    // -trace 1: per-layer metrics (one untraced reference run, the traced run, the probes)
)

// options is what every workload run needs to know.
type options struct {
	seed   int64
	repeat int
	warm   time.Duration
	window time.Duration
	// setups is how many set-up-only clusters join the setup_s sample.
	setups int
	// probeScale shrinks the probes' fixed op counts; 1 outside tests.
	probeScale float64
}

// suiteResult is the -out file: what -compare reads.
type suiteResult struct {
	Meta      map[string]any    `json:"meta"`
	Workloads []*workloadResult `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names   = fs.String("workload", "", "comma-separated workloads to run (default: all)")
		seed    = fs.Int64("seed", 1, "seed for every generated input")
		repeat  = fs.Int("repeat", 3, "fresh clusters per workload; a metric is the median over them")
		window  = fs.Duration("window", 5*time.Second, "measured time per repeat (after a 1s warm-up)")
		seconds = fs.Float64("seconds", 0, "total measured time per workload; sets -window to seconds/repeat")
		trace   = fs.String("trace", "both", "both: end-to-end pass then traced pass; 0: end-to-end only; 1: per-layer only. 0 and 1 take one workload and end with the one-line JSON result")
		out     = fs.String("out", "", "write the results as JSON to this file")
		compare = fs.String("compare", "", "compare two -out files: -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "bench: -compare takes two files: -compare a.json b.json")
			return 2
		}
		return compareFiles(*compare, fs.Arg(0), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	var mode traceMode
	switch *trace {
	case "both":
		mode = modeBoth
	case "0":
		mode = modeUntraced
	case "1":
		mode = modeTraced
	default:
		fmt.Fprintf(stderr, "bench: -trace must be both, 0 or 1, not %q\n", *trace)
		return 2
	}
	if *repeat < 1 {
		fmt.Fprintln(stderr, "bench: -repeat must be at least 1")
		return 2
	}
	o := options{seed: *seed, repeat: *repeat, warm: time.Second, window: *window, setups: extraSetups, probeScale: 1}
	if *seconds > 0 {
		o.window = time.Duration(*seconds / float64(*repeat) * float64(time.Second))
	}
	if o.window <= 0 {
		fmt.Fprintln(stderr, "bench: the measured window must be positive")
		return 2
	}
	selected := workloads
	if *names != "" {
		selected = nil
		for _, name := range strings.Split(*names, ",") {
			w, ok := workloadByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(stderr, "bench: unknown workload %q\n", name)
				return 2
			}
			selected = append(selected, w)
		}
	}
	contract := mode != modeBoth
	if contract && len(selected) != 1 {
		fmt.Fprintln(stderr, "bench: -trace 0 and -trace 1 take exactly one -workload")
		return 2
	}

	suite, err := runSuite(selected, o, mode, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		if err := writeJSON(*out, suite); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	code := 0
	for _, res := range suite.Workloads {
		if !res.correct() || res.Failed > 0 {
			code = 1
		}
	}
	if contract {
		printContractLine(stdout, suite.Workloads[0], mode)
	}
	return code
}

// runSuite runs the selected workloads and prints each as it finishes.
func runSuite(selected []workloadDef, o options, mode traceMode, stdout io.Writer) (*suiteResult, error) {
	suite := &suiteResult{Meta: map[string]any{
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"ncpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"seed": o.seed, "repeat": o.repeat, "window_s": o.window.Seconds(), "warmup_s": o.warm.Seconds(),
	}}
	for _, w := range selected {
		var res *workloadResult
		var err error
		if w.live != nil {
			res, err = runLiveWorkload(w, o, mode)
		} else {
			res, err = w.run(o, mode)
		}
		if err != nil {
			return suite, fmt.Errorf("%s: %w", w.name, err)
		}
		suite.Workloads = append(suite.Workloads, res)
		printWorkload(stdout, res, mode)
	}
	if mode != modeUntraced {
		// Each layer alone, once per invocation, after the workloads so the
		// end-to-end passes see the same process whatever the mode.
		values, err := runProbes(o.probeScale)
		if err != nil {
			return suite, err
		}
		fmt.Fprintln(stdout, "\n== layer probes (each layer alone; the same beside every workload) ==")
		for _, m := range perLayer {
			if v, ok := values[m.Name]; ok {
				fmt.Fprintf(stdout, "  %-28s %14.4f %s\n", m.Name, v, m.Unit)
			}
		}
		for _, res := range suite.Workloads {
			for name, v := range values {
				res.setLayer(name, v)
			}
			res.fillLayers()
		}
	}
	return suite, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printWorkload prints every metric of one workload by name, with its unit.
func printWorkload(w io.Writer, res *workloadResult, mode traceMode) {
	fmt.Fprintf(w, "\n== %s (seed %d) ==\n", res.Name, res.Seed)
	if mode != modeTraced {
		fmt.Fprintln(w, "end-to-end (median over repeats, timings cut into slices their quiet quartile; per-repeat values in brackets):")
		for _, m := range endToEnd {
			v, ok := res.EndToEnd[m.Name]
			if !m.on(res.Name) || !ok {
				fmt.Fprintf(w, "  %-28s %14s\n", m.Name, "n/a")
				continue
			}
			fmt.Fprintf(w, "  %-28s %14.4f %-6s", m.Name, v.Value, v.Unit)
			if len(v.Repeats) > 1 {
				fmt.Fprintf(w, " %s", formatRepeats(v.Repeats))
			}
			if v.Samples > 0 {
				fmt.Fprintf(w, " (%d samples)", v.Samples)
			}
			fmt.Fprintln(w)
		}
	}
	if mode != modeUntraced {
		fmt.Fprintln(w, "per-layer (traced pass, but acquire_p99_us untraced; 0 = layer not on this workload's path):")
		for _, m := range perLayer {
			if strings.HasPrefix(m.Name, "probe.") {
				continue // printed once, after the last workload
			}
			fmt.Fprintf(w, "  %-28s %14.4f %s\n", m.Name, res.PerLayer[m.Name].Value, m.Unit)
		}
		if b := res.budget; b != nil {
			fmt.Fprintf(w, "synchronization-delay budget (%d handoffs whose successor was already waiting):\n", b.Pairs)
			sum := 0.0
			for _, name := range budgetRows {
				fmt.Fprintf(w, "  %-28s %14.4f us\n", name, b.Rows[name])
				sum += b.Rows[name]
			}
			fmt.Fprintf(w, "  %-28s %14.4f us\n", "unattributed_us", b.Unattributed)
			fmt.Fprintf(w, "  %-28s %14.4f us (rows + unattributed = %.4f)\n", "sync_delay_us_mean", b.Mean, sum+b.Unattributed)
		}
	}
	fmt.Fprintf(w, "attempted %d, failed %d, safety violations %d\n", res.Attempted, res.Failed, res.ViolationCount)
	for _, v := range res.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func formatRepeats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// contractLine is the builder's one-line result.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printContractLine prints the last line of a -trace 0 or -trace 1 run:
// every end-to-end metric BENCHMARK.json lists, or every per-layer one.
func printContractLine(w io.Writer, res *workloadResult, mode traceMode) {
	line := contractLine{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]contractMetric)}
	if mode == modeUntraced {
		for _, m := range contractEndToEnd() {
			v := res.EndToEnd[m.Name]
			line.Metrics[m.Name] = contractMetric{Value: v.Value, Unit: m.Unit}
		}
	} else {
		for _, m := range perLayer {
			line.Metrics[m.Name] = contractMetric{Value: res.PerLayer[m.Name].Value, Unit: m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // plain numbers and strings: cannot fail
	}
	fmt.Fprintf(w, "%s\n", b)
}
