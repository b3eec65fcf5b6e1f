package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"dagmutex/internal/core"
	"dagmutex/internal/mutex"
	"dagmutex/internal/topology"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if percentile(nil, 50) != 0 || mean(nil) != 0 {
		t.Error("an empty sample must read 0")
	}
	if got := relSpread([]float64{9, 10, 11}); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("relSpread of three values = %v, want (max-min)/median = 0.2", got)
	}
	// statistics.quantiles([1..8], n=4) = [2.25, 4.5, 6.75]
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8}); math.Abs(got-1) > 1e-9 {
		t.Errorf("relSpread of 1..8 = %v, want (6.75-2.25)/4.5 = 1", got)
	}
	if got := midmean([]float64{100, 1, 2, 3, 4, 5, 6, 0}); got != 3.5 {
		t.Errorf("midmean = %v, want the mean of 2..5 = 3.5", got)
	}
	if got := midmean([]float64{7}); got != 7 {
		t.Errorf("midmean of one value = %v", got)
	}
	if lo, hi := quiet(xs, "lower"), quiet(xs, "higher"); lo != 2 || hi != 4 {
		t.Errorf("quiet quartile of 1..5 = %v (lower is better), %v (higher); want 2, 4", lo, hi)
	}
}

// Callers mark where each slice of the window begins in their samples;
// cutting gathers every caller's operations slice by slice, leaves out
// what ended after the last whole slice, and the run's timings are the
// quiet quartile over the slices, clear of the one a burst spoiled.
func TestSlicesAndQuietQuartile(t *testing.T) {
	const n = 4
	record := func(c *caller, slice int, us float64) {
		c.mark(slice, n)
		c.lat = append(c.lat, uint32(us*1e3))
	}
	a, b := &caller{}, &caller{}
	record(a, 0, 10)
	record(a, 0, 30)
	record(a, 2, 50) // nothing of a's ended in slice 1
	record(a, 3, 70)
	record(a, 4, 1e6) // the tail after the window
	record(a, 6, 1e6)
	record(b, 1, 20)
	record(b, 3, 4000) // a stall
	got := cutSlices([]*caller{a, b}, n)
	perS := 1 / sliceDur.Seconds()
	want := []sliceStat{
		{opsPerS: 2 * perS, p50Us: 20, p99Us: 29.8},
		{opsPerS: 1 * perS, p50Us: 20, p99Us: 20},
		{opsPerS: 1 * perS, p50Us: 50, p99Us: 50},
		{opsPerS: 2 * perS, p50Us: 2035, p99Us: 3960.7},
	}
	if len(got) != n {
		t.Fatalf("%d slices, want %d", len(got), n)
	}
	for i := range want {
		if math.Abs(got[i].opsPerS-want[i].opsPerS) > 1e-9 || math.Abs(got[i].p50Us-want[i].p50Us) > 1e-9 ||
			math.Abs(got[i].p99Us-want[i].p99Us) > 1e-9 {
			t.Errorf("slice %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(a.marks) != n+1 {
		t.Errorf("a caller keeps %d marks, want one per slice and one closing: %d", len(a.marks), n+1)
	}
	tm := sliceTimings(got)
	if tm["acquire_p50_us"] != 20 || tm["acquire_p99_us"] != 27.35 || tm["ops_per_s"] != 2*perS {
		t.Errorf("timings over the slices = %v", tm)
	}
	if sliceTimings(nil) != nil {
		t.Error("no slices, no timings")
	}
	if got := cutSlices([]*caller{{}}, 2); len(got) != 2 || got[0].opsPerS != 0 {
		t.Errorf("a caller that ended nothing = %+v", got)
	}
}

// The matcher pairs the n-th delivery on a link with the n-th send, and
// reports a delivery nobody sent.
func TestLinkQueueMatchesFIFO(t *testing.T) {
	var q linkQueue
	for _, ts := range []int64{100, 200, 300} {
		q.send(ts)
	}
	for i, tc := range []struct{ now, want int64 }{{150, 50}, {260, 60}, {1000, 700}} {
		got, ok := q.deliver(tc.now, true)
		if !ok || got != tc.want {
			t.Errorf("delivery %d: transit %d ok=%v, want %d", i, got, ok, tc.want)
		}
	}
	if _, ok := q.deliver(2000, true); ok {
		t.Error("a delivery with nothing in flight was matched")
	}
	if len(q.transits) != 3 {
		t.Errorf("kept %d samples, want 3", len(q.transits))
	}
	// The ring compacts without losing order.
	for i := int64(0); i < 5000; i++ {
		q.send(i)
		if got, _ := q.deliver(i+7, false); got != 7 {
			t.Fatalf("after %d sends: transit %d, want 7", i, got)
		}
	}
}

// Consecutive fences of one shard join into a handoff when the successor
// was already waiting; the rows and the remainder sum to the delay.
func TestJoinSyncDelay(t *testing.T) {
	us := func(v int64) int64 { return v * 1000 }
	member := func(acqCall, acqRet, relCall int64) span {
		return span{acqCall: us(acqCall), acqRet: us(acqRet), relCall: us(relCall),
			bAcqCall: us(acqCall), bAcqRet: us(acqRet), bRelCall: us(relCall)}
	}
	s1 := member(1, 10, 20) // token moves to the next holder
	s1.granted, s1.relCore, s1.relCoreEnd = us(9), us(21), us(24)
	s1.privSend, s1.privDeliver = us(22), us(32)
	s2 := member(5, 40, 50) // waiting since 5; regrants to the next
	s2.granted, s2.relCore, s2.relCoreEnd = us(35), us(51), us(53)
	s3 := member(30, 56, 60)
	s3.granted, s3.relCore, s3.relCoreEnd = us(52), us(61), us(62)
	s5 := member(70, 80, 90) // fence 4 missing: no pair with 3
	s5.granted, s5.relCore, s5.relCoreEnd = us(79), us(91), us(92)
	late := member(100, 110, 120) // other shard; successor arrives after the release
	late.granted, late.relCore, late.relCoreEnd = us(109), us(121), us(122)
	after := member(125, 130, 140)
	after.granted = us(129)
	spans := map[fenceKey]*span{
		{0, 1}: &s1, {0, 2}: &s2, {0, 3}: &s3, {0, 5}: &s5,
		{1, 1}: &late, {1, 2}: &after,
	}
	b := joinSyncDelay(spans)
	if b.Pairs != 2 {
		t.Fatalf("joined %d handoffs, want 2 (1→2 and 2→3)", b.Pairs)
	}
	// 1→2: sync 40-20=20; lockservice 1, core (22-21)+(35-32)=4, wire 10, wake 5.
	// 2→3: sync 56-50=6; lockservice 1, core 52-51=1 (regrant), wire 0, wake 4.
	want := map[string]float64{
		"budget.clienthop_us": 0, "budget.lockservice_us": 1, "budget.core_us": 2.5,
		"budget.wire_us": 5, "budget.wake_us": 4.5,
	}
	sum := b.Unattributed
	for name, w := range want {
		if got := b.Rows[name]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
		sum += b.Rows[name]
	}
	if math.Abs(b.Mean-13) > 1e-9 || math.Abs(sum-b.Mean) > 1e-9 {
		t.Errorf("mean %v (want 13), rows+unattributed %v", b.Mean, sum)
	}
	if math.Abs(b.Unattributed-0) > 1e-9 {
		t.Errorf("unattributed %v, want 0", b.Unattributed)
	}
}

// doubleGranter grants everyone at once under one fence: the lock that
// is not one.
type doubleGranter struct{}

func (doubleGranter) Acquire(context.Context, string) (uint64, error) { return 7, nil }
func (doubleGranter) Release(string, uint64) error                    { return nil }

func fakeWorkload() workloadDef {
	return workloadDef{name: "double_grant", live: &liveSpec{callers: 4, keys: 1, shards: 1,
		build: func(*tracer) (*liveCluster, error) {
			return &liveCluster{lockers: []Locker{doubleGranter{}, doubleGranter{}, doubleGranter{}, doubleGranter{}},
				close: func() {}}, nil
		}}}
}

func TestCheckerTripsOnDoubleGrant(t *testing.T) {
	run, err := runLive(*fakeWorkload().live, 1, 0, 50*time.Millisecond, false)
	if err != nil {
		t.Fatal(err)
	}
	if run.violations == 0 {
		t.Fatal("four callers held one key under one fence and the checker saw nothing")
	}
	text := strings.Join(run.violationText, "\n")
	if !strings.Contains(text, "fence") {
		t.Errorf("no fence violation among: %s", text)
	}
}

// A violation fails the command, and the result line says so.
func TestViolationFailsTheCommand(t *testing.T) {
	workloads = append(workloads, fakeWorkload())
	defer func() { workloads = workloads[:len(workloads)-1] }()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "double_grant", "-trace", "0", "-repeat", "1", "-window", "50ms"}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("exit status 0 despite violations\n%s", stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if line.Correct {
		t.Error(`result line says "correct": true`)
	}
}

// The shims must forward every optional capability; losing one makes the
// runtime take its fallback path and the traced pass measure another
// program.
var (
	_ mutex.TryRequester      = (*nodeShim)(nil)
	_ mutex.ReleaseRequester  = (*nodeShim)(nil)
	_ mutex.Regranter         = (*nodeShim)(nil)
	_ mutex.Reorienter        = (*nodeShim)(nil)
	_ mutex.MembershipHandler = (*nodeShim)(nil)
	_ mutex.HopGranter        = (*envShim)(nil)
)

type hopEnv struct {
	probeEnv
	hops []int
}

func (e *hopEnv) GrantedHops(gen uint64, hops int) { e.hops = append(e.hops, hops); e.grants++ }

func TestShimsForwardCapabilities(t *testing.T) {
	tree := topology.Line(2)
	cfg := mutex.Config{IDs: tree.IDs(), Holder: 1, Parent: tree.ParentsToward(1)}
	var queue []probeMsg
	env := &hopEnv{probeEnv: probeEnv{id: 1, queue: &queue}}
	tr := newTracer()
	tr.on.Store(true)
	node, err := tr.wrap(0, core.Builder)(1, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := node.(protocolNode); !ok {
		t.Fatalf("%T does not forward every capability", node)
	}
	// The holder enters, regrants (the cohort path) and leaves, all through
	// the shim, and the hop-aware grant path reaches the inner env.
	if ok, err := node.(mutex.TryRequester).TryRequest(); err != nil || !ok {
		t.Fatalf("TryRequest = %v, %v", ok, err)
	}
	if ok, err := node.(mutex.Regranter).Regrant(); err != nil || !ok {
		t.Fatalf("Regrant = %v, %v", ok, err)
	}
	if err := node.(mutex.ReleaseRequester).ReleaseRequest(); err != nil {
		t.Fatal(err)
	}
	if len(env.hops) != 3 {
		t.Errorf("inner env saw %d hop-aware grants, want 3", len(env.hops))
	}
	shim := tr.nodes[0]
	if shim.grants != 3 || shim.regrants != 1 || shim.rels != 2 || shim.calls != 3 {
		t.Errorf("shim counted grants=%d regrants=%d releases=%d calls=%d, want 3 1 2 3",
			shim.grants, shim.regrants, shim.rels, shim.calls)
	}
	// A node without the capabilities is refused, not silently degraded.
	bare := func(id mutex.ID, env mutex.Env, cfg mutex.Config) (mutex.Node, error) {
		n, err := core.New(id, env, cfg)
		return struct{ mutex.Node }{n}, err
	}
	if _, err := tr.wrap(0, bare)(1, env, cfg); err == nil {
		t.Error("a node lacking capabilities was wrapped without complaint")
	}
}

func TestCompareVerdicts(t *testing.T) {
	opsSpec, _ := specByName(endToEnd, "ops_per_s")
	p99Spec, _ := specByName(endToEnd, "acquire_p99_us")
	// mk is a run whose throughput is lower, and whose p99 is higher, than
	// the baseline's by the given shares of each metric's bound.
	mk := func(worse float64, failed float64) *suiteResult {
		w := &workloadResult{Name: "w"}
		ops := 100 * (1 - worse*opsSpec.Bound)
		p99 := 50 * (1 + worse*p99Spec.Bound)
		w.setE2E("ops_per_s", []float64{ops - 1, ops, ops + 1}, 0)
		w.setE2E("acquire_p99_us", []float64{p99 - 1, p99, p99 + 1}, 0)
		w.setE2E("failed_share", []float64{failed}, 0)
		return &suiteResult{Workloads: []*workloadResult{w}}
	}
	base := mk(0, 0)
	status := func(b *suiteResult) map[string]string {
		out := make(map[string]string)
		for _, v := range compareResults(base, b) {
			out[v.metric] = v.status
		}
		return out
	}
	got := status(mk(0.5, 0))
	if got["ops_per_s"] != "ok" || got["acquire_p99_us"] != "ok" || got["failed_share"] != "ok" {
		t.Errorf("half the bound worse: %v", got)
	}
	got = status(mk(1.5, 0.01))
	if got["ops_per_s"] != "REGRESSED" || got["acquire_p99_us"] != "REGRESSED" || got["failed_share"] != "REGRESSED" {
		t.Errorf("one and a half bounds worse, 1%% failing: %v", got)
	}
	// A spread wider than the bound hides the answer...
	wide := mk(0, 0)
	wide.Workloads[0].setE2E("ops_per_s", []float64{100 * (1 - opsSpec.Bound), 100, 100 * (1 + opsSpec.Bound)}, 0)
	if got = status(wide); got["ops_per_s"] != "unresolved" {
		t.Errorf("overlapping wide spread: %v", got)
	}
	// ...unless one side is clear of the other altogether.
	wide.Workloads[0].setE2E("ops_per_s", []float64{30, 45, 60}, 0)
	if got = status(wide); got["ops_per_s"] != "REGRESSED" {
		t.Errorf("wide but separated: %v", got)
	}
	var stdout, stderr bytes.Buffer
	dir := t.TempDir()
	a, b := dir+"/a.json", dir+"/b.json"
	if err := writeJSON(a, base); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(b, mk(1.5, 0)); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-compare", a, a}, &stdout, &stderr); code != 0 {
		t.Errorf("a run against itself exits %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if code := run([]string{"-compare", a, b}, &stdout, &stderr); code != 1 {
		t.Errorf("a regression exits %d, want 1", code)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the code declare the same workloads and metrics, and
// a smoke run of every workload emits exactly what they declare.
func TestSchemaMatchesSmokeRun(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the suite has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		fw := file.Workloads[i]
		if fw.Name != w.name || fw.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the suite %q (%q)", i, fw.Name, fw.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
	sameMetrics := func(kind string, got []fileMetric, want []metricSpec, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %+v", kind, i, g, m)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %q: name or unit outside the allowed characters", kind, m.Name)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25):
				t.Errorf("%s %q: bound %v in BENCHMARK.json, %v in the code", kind, m.Name, g.Bound, m.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %q: a per-layer metric has no bound", kind, m.Name)
			}
		}
	}
	sameMetrics("end_to_end", file.EndToEnd, contractEndToEnd(), true)
	sameMetrics("per_layer", file.PerLayer, perLayer, false)
	if len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", file.Paths)
	}

	o := options{seed: 1, repeat: 1, warm: 50 * time.Millisecond, window: 200 * time.Millisecond, setups: 3, probeScale: 0.001}
	var stdout bytes.Buffer
	suite, err := runSuite(workloads, o, modeBoth, &stdout)
	if err != nil {
		t.Fatalf("smoke run: %v\n%s", err, stdout.String())
	}
	for _, res := range suite.Workloads {
		var violations []string
		for _, v := range res.Violations {
			// How often a token travels depends on timing, and a 200 ms
			// window (under the race detector, too) is too short to hold the
			// traced pass to the untraced one on that. Where the count does
			// not depend on timing the check stays on.
			if strings.Contains(v, "ran a different program") && res.Name != "member_local_cohort" {
				continue
			}
			violations = append(violations, v)
		}
		if len(violations) > 0 || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d, violations %v", res.Name, res.Attempted, res.Failed, violations)
		}
		for _, m := range endToEnd {
			v, ok := res.EndToEnd[m.Name]
			if ok != m.on(res.Name) {
				t.Errorf("%s: end-to-end %s emitted=%v, declared=%v", res.Name, m.Name, ok, m.on(res.Name))
			}
			if ok && !m.Absolute && !(v.Value > 0) {
				t.Errorf("%s: end-to-end %s = %v, want a positive number", res.Name, m.Name, v.Value)
			}
		}
		for name := range res.EndToEnd {
			if _, ok := specByName(endToEnd, name); !ok {
				t.Errorf("%s: emitted undeclared end-to-end metric %s", res.Name, name)
			}
		}
		if len(res.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, %d declared", res.Name, len(res.PerLayer), len(perLayer))
		}
		for _, m := range perLayer {
			v, ok := res.PerLayer[m.Name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer %s missing or not a number", res.Name, m.Name)
			}
		}
		if b := res.budget; b != nil && b.Pairs > 0 {
			sum := b.Unattributed
			for _, name := range budgetRows {
				sum += b.Rows[name]
			}
			if math.Abs(sum-b.Mean) > 1e-6*math.Max(1, b.Mean) {
				t.Errorf("%s: budget rows + unattributed = %v, sync_delay_us_mean = %v", res.Name, sum, b.Mean)
			}
		}
		// The one-line results carry exactly the declared names.
		for _, mode := range []traceMode{modeUntraced, modeTraced} {
			var buf bytes.Buffer
			printContractLine(&buf, res, mode)
			var line contractLine
			if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
				t.Fatalf("%s: result line: %v", res.Name, err)
			}
			want := len(file.EndToEnd)
			if mode == modeTraced {
				want = len(file.PerLayer)
			}
			if len(line.Metrics) != want {
				t.Errorf("%s: result line (trace mode %d) has %d metrics, BENCHMARK.json %d", res.Name, mode, len(line.Metrics), want)
			}
		}
	}
}
