package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// verdict is one (workload, end-to-end metric) comparison.
type verdict struct {
	workload, metric string
	a, b             metricValue
	// worse is how much b is worse than a: a share of a, or an absolute
	// difference for an absolute-bound metric. Negative means better.
	worse  float64
	spread float64 // the wider of the two sides' per-repeat spreads
	bound  float64
	status string // "ok", "REGRESSED", "unresolved", "missing"
}

// compareResults holds b (the change) against a (the baseline) on every
// end-to-end metric of every workload a reports, under the bounds of the
// endToEnd table (which BENCHMARK.json repeats). A metric whose per-repeat
// spread on either side is wider than its bound cannot carry a verdict:
// it is unresolved, unless every repeat of one side beats every repeat of
// the other.
func compareResults(a, b *suiteResult) []verdict {
	byName := make(map[string]*workloadResult)
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	var out []verdict
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		for _, m := range endToEnd {
			va, ok := wa.EndToEnd[m.Name]
			if !ok {
				continue
			}
			v := verdict{workload: wa.Name, metric: m.Name, a: va, bound: m.Bound}
			var vb metricValue
			found := false
			if wb != nil {
				vb, found = wb.EndToEnd[m.Name]
			}
			if !found {
				v.status = "missing"
				out = append(out, v)
				continue
			}
			v.b = vb
			diff := vb.Value - va.Value
			if m.Better == "higher" {
				diff = -diff
			}
			switch {
			case m.Absolute:
				v.worse = diff
			case va.Value != 0:
				v.worse = diff / math.Abs(va.Value)
			case diff != 0:
				v.worse = 1
			}
			if !m.Absolute {
				v.spread = max(relSpread(va.Repeats), relSpread(vb.Repeats))
			}
			switch {
			case v.spread > m.Bound && !separated(va.Repeats, vb.Repeats):
				v.status = "unresolved"
			case v.worse > m.Bound:
				v.status = "REGRESSED"
			default:
				v.status = "ok"
			}
			out = append(out, v)
		}
	}
	return out
}

// separated reports whether every value of one side lies strictly on one
// side of every value of the other: then even a wide spread cannot hide
// which way the metric moved.
func separated(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	loA, hiA := minMax(a)
	loB, hiB := minMax(b)
	return hiA < loB || hiB < loA
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

func readSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareFiles is -compare: exit status 1 when any metric regressed (or
// went missing), 0 otherwise; unresolved metrics are listed with their
// per-repeat values and do not fail the command.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readSuite(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readSuite(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%-22s %-16s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "a", "b", "worse", "spread", "bound", "status")
	code := 0
	var unresolved []verdict
	for _, v := range compareResults(a, b) {
		fmt.Fprintf(stdout, "%-22s %-16s %14.4f %14.4f %+8.1f%% %7.1f%% %6.1f%%  %s\n",
			v.workload, v.metric, v.a.Value, v.b.Value, 100*v.worse, 100*v.spread, 100*v.bound, v.status)
		switch v.status {
		case "REGRESSED", "missing":
			code = 1
		case "unresolved":
			unresolved = append(unresolved, v)
		}
	}
	for _, v := range unresolved {
		fmt.Fprintf(stdout, "unresolved: %s %s: a repeats %s, b repeats %s\n",
			v.workload, v.metric, formatRepeats(v.a.Repeats), formatRepeats(v.b.Repeats))
	}
	return code
}
