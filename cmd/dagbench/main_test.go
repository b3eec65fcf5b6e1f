package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "6.3", false, false, 1); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"EXP-6.3-delay", "dag", "raymond", "measured", "paper"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCSVOutput(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "6.3", true, false, 1); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "algorithm,topology,measured,paper") {
		t.Fatalf("CSV header missing:\n%s", out)
	}
	if !strings.Contains(out, "dag,star-9,1.0,1.0") {
		t.Fatalf("CSV row missing:\n%s", out)
	}
}

// TestRunUnknownExperiment also covers the live-stack sweeps dagbench
// no longer runs (go run ./bench measures the live stack): each of their
// old keys fails like any other unknown name.
func TestRunUnknownExperiment(t *testing.T) {
	for _, exp := range []string{"99", "lock", "topology", "lease", "clients", "chaos", "telemetry"} {
		var b strings.Builder
		err := run(&b, exp, false, false, 1)
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Fatalf("-exp %s: err = %v, want an unknown-experiment error", exp, err)
		}
	}
}

func TestRunTopoExperiment(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "topo", false, false, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "radiating-star") {
		t.Fatalf("topology sweep missing radiating star:\n%s", b.String())
	}
}

func TestRunJSONOutput(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "6.3", false, true, 1); err != nil {
		t.Fatal(err)
	}
	var tables []struct {
		ID      string     `json:"id"`
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(b.String()), &tables); err != nil {
		t.Fatalf("-json output is not a JSON table array: %v\n%s", err, b.String())
	}
	if len(tables) != 1 || tables[0].ID != "EXP-6.3-delay" {
		t.Fatalf("unexpected JSON tables: %+v", tables)
	}
	if len(tables[0].Rows) == 0 || len(tables[0].Columns) == 0 {
		t.Fatalf("JSON table has no data: %+v", tables[0])
	}
}

// TestRunExpCommaList: a comma-separated -exp list runs every named
// experiment, in registry order.
func TestRunExpCommaList(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "6.3, 6.4", false, false, 1); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"EXP-6.3-delay", "EXP-6.4-storage"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunRejectsUnknownExpInList: one bad token fails the whole run with
// a clear one-line error before anything executes.
func TestRunRejectsUnknownExpInList(t *testing.T) {
	var b strings.Builder
	err := run(&b, "6.3,bogus", false, false, 1)
	if err == nil {
		t.Fatal("unknown experiment in list accepted")
	}
	if !strings.Contains(err.Error(), `"bogus"`) || !strings.Contains(err.Error(), "6.2-heavy") {
		t.Fatalf("error %q does not name the bad token and the valid set", err)
	}
	if strings.Contains(err.Error(), "\n") {
		t.Fatalf("error spans multiple lines: %q", err)
	}
	if b.Len() != 0 {
		t.Fatalf("output produced despite validation error:\n%s", b.String())
	}
}

func TestRunRejectsEmptyExpList(t *testing.T) {
	var b strings.Builder
	for _, exp := range []string{"", " , "} {
		if err := run(&b, exp, false, false, 1); err == nil {
			t.Fatalf("empty -exp %q accepted", exp)
		}
	}
}
