package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(`grants_total{shard="0"}`)
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter(`grants_total{shard="0"}`); again != c {
		t.Fatalf("re-registering a counter name returned a new instance")
	}
	r.Gauge("ratio", func() float64 { return 2.5 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"grants_total{shard=\"0\"} 5\n", "ratio 2.5\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("wait_seconds", Seconds)
	// 100 observations at ~1ms, 5 at ~100ms: p50 must land in the 1ms
	// decade and p99 in the 100ms decade (quantiles resolve to
	// power-of-two bucket bounds, so allow a 2x factor).
	for i := 0; i < 100; i++ {
		h.ObserveDuration(time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		h.ObserveDuration(100 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 105 {
		t.Fatalf("count = %d, want 105", s.Count)
	}
	if s.P50 < 0.0005 || s.P50 > 0.003 {
		t.Errorf("p50 = %g, want ~1ms within 2x", s.P50)
	}
	if s.P99 < 0.05 || s.P99 > 0.3 {
		t.Errorf("p99 = %g, want ~100ms within 2x", s.P99)
	}
	if s.Mean <= 0 || s.Sum <= 0 {
		t.Errorf("mean/sum not positive: %+v", s)
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	var h Histogram
	h.scale = Units
	h.Observe(0)
	h.Observe(-5)
	s := h.Snapshot()
	if s.Count != 2 || s.P50 != 0 || s.P99 != 0 {
		t.Fatalf("zero-valued snapshot wrong: %+v", s)
	}
}

func TestPrometheusSummaryRendering(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(`wait_seconds{shard="2"}`, Seconds)
	h.ObserveDuration(time.Second)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`wait_seconds{shard="2",quantile="0.5"}`,
		`wait_seconds{shard="2",quantile="0.99"}`,
		`wait_seconds_sum{shard="2"} 1`,
		`wait_seconds_count{shard="2"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSpliceHelpers(t *testing.T) {
	cases := []struct{ name, suffix, label, wantS, wantL string }{
		{"m", "_sum", `q="1"`, "m_sum", `m{q="1"}`},
		{`m{a="1"}`, "_sum", `q="1"`, `m_sum{a="1"}`, `m{a="1",q="1"}`},
		{"m{}", "_sum", `q="1"`, "m_sum{}", `m{q="1"}`},
	}
	for _, c := range cases {
		if got := spliceSuffix(c.name, c.suffix); got != c.wantS {
			t.Errorf("spliceSuffix(%q) = %q, want %q", c.name, got, c.wantS)
		}
		if got := spliceLabel(c.name, c.label); got != c.wantL {
			t.Errorf("spliceLabel(%q) = %q, want %q", c.name, got, c.wantL)
		}
	}
}

func TestTraceEventStringAndID(t *testing.T) {
	e := TraceEvent{Kind: TracePrivilege, Node: 3, Peer: 4, Origin: 4, Fence: 17, Hops: 2, Shard: -1}
	want := "node 3 PRIVILEGE -> 4 origin=4 fence=17 hops=2"
	if got := e.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	g := TraceEvent{Kind: TraceGrant, Node: 4, Origin: 4, Fence: 17, Hops: 2, Shard: -1}
	if e.TraceID() != g.TraceID() {
		t.Errorf("privilege and grant of one chain have different trace IDs: %x vs %x", e.TraceID(), g.TraceID())
	}
	other := TraceEvent{Kind: TraceGrant, Node: 4, Origin: 4, Fence: 18, Shard: -1}
	if g.TraceID() == other.TraceID() {
		t.Errorf("distinct fences share a trace ID")
	}
	// Origins are any positive int32: 1 and 65 537 under one fence are two
	// chains.
	near := TraceEvent{Kind: TraceGrant, Node: 1, Origin: 1, Fence: 17, Shard: -1}
	far := TraceEvent{Kind: TraceGrant, Node: 65537, Origin: 65537, Fence: 17, Shard: -1}
	if near.TraceID() == far.TraceID() {
		t.Errorf("origins 1 and 65537 share a trace ID: %v", far.TraceID())
	}
	rec := TraceEvent{Kind: TraceRecovery, Node: 1, Peer: 3, Epoch: 1, Shard: -1, Detail: "PEER-DOWN"}
	if got, want := rec.String(), "node 1 RECOVERY PEER-DOWN peer=3 epoch=1"; got != want {
		t.Errorf("recovery String() = %q, want %q", got, want)
	}
	sharded := TraceEvent{Kind: TraceRelease, Node: 2, Fence: 9, Shard: 3, Detail: "orders"}
	if got, want := sharded.String(), "node 2 RELEASE orders fence=9 shard=3"; got != want {
		t.Errorf("sharded String() = %q, want %q", got, want)
	}
}

func TestInstrumentsAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", Seconds)
	obs := func(e TraceEvent) {
		c.Inc()
		h.Observe(int64(e.Fence))
	}
	ev := TraceEvent{Kind: TraceGrant, Node: 1, Origin: 1, Fence: 42, Shard: -1}
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.ObserveDuration(time.Microsecond)
		obs(ev)
		_ = ev.TraceID()
	}); n != 0 {
		t.Fatalf("hot-path instruments allocate %v allocs/op, want 0", n)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	h.scale = Units
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
}

func TestServeMetricsAndPprof(t *testing.T) {
	r := NewRegistry()
	r.Counter("up").Inc()
	srv, err := Serve("", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if out := get("/metrics"); !strings.Contains(out, "up 1") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	if out := get("/debug/pprof/"); !strings.Contains(out, "goroutine") {
		t.Errorf("/debug/pprof/ index looks wrong:\n%s", out)
	}
	if out := get("/debug/vars"); !strings.Contains(out, "memstats") {
		t.Errorf("/debug/vars missing memstats:\n%s", out)
	}
}
