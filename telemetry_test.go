package dagmutex_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"dagmutex"
)

// scrape fetches one debug endpoint and returns its body.
func scrape(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestLockServiceDebugEndpoints opens an instrumented lock service with
// live debug endpoints, drives it, and scrapes /metrics over real HTTP:
// the per-shard counters and wait quantiles must be there, live, and
// /debug/pprof/ must answer. This is the facade-level round trip of the
// whole telemetry stack.
func TestLockServiceDebugEndpoints(t *testing.T) {
	reg := dagmutex.NewTelemetry()
	var mu sync.Mutex
	kinds := make(map[dagmutex.TraceKind]int)
	svc, err := dagmutex.OpenLockService(dagmutex.LockServiceConfig{Shards: 2, Nodes: 2},
		dagmutex.WithTelemetry(reg),
		dagmutex.WithTraceObserver(func(e dagmutex.TraceEvent) {
			mu.Lock()
			kinds[e.Kind]++
			mu.Unlock()
		}),
		dagmutex.WithDebugAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.Telemetry() != reg {
		t.Fatal("service does not report the registry it was opened with")
	}
	addr := svc.DebugAddr()
	if addr == "" {
		t.Fatal("no debug address bound")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const ops = 25
	for i := 0; i < ops; i++ {
		h, err := svc.Acquire(ctx, fmt.Sprintf("res-%d", i%4))
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.ReleaseHold(h); err != nil {
			t.Fatal(err)
		}
	}

	body := scrape(t, addr, "/metrics")
	for _, want := range []string{
		`dagmutex_grants_total{shard="0"}`,
		`dagmutex_grants_total{shard="1"}`,
		`dagmutex_msgs_per_grant{shard="0"}`,
		`dagmutex_acquire_wait_seconds{shard="1",quantile="0.95"}`,
		`dagmutex_hold_duration_seconds_sum{shard="0"}`,
		`dagmutex_recoveries_total{shard="1"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	var total int64
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "dagmutex_grants_total{") {
			var v float64
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &v)
			total += int64(v)
		}
	}
	if total != ops {
		t.Errorf("scraped grants_total sums to %d, want %d", total, ops)
	}
	if got := scrape(t, addr, "/debug/pprof/cmdline"); got == "" {
		t.Error("/debug/pprof/cmdline served nothing")
	}

	mu.Lock()
	defer mu.Unlock()
	if kinds[dagmutex.TraceGrant] != ops || kinds[dagmutex.TraceRelease] != ops {
		t.Errorf("trace stream: %d grants, %d releases, want %d each",
			kinds[dagmutex.TraceGrant], kinds[dagmutex.TraceRelease], ops)
	}
}

// TestClusterTelemetry checks the bare-cluster side of the facade: the
// messages gauge and the causal trace stream of a plain Open.
func TestClusterTelemetry(t *testing.T) {
	reg := dagmutex.NewTelemetry()
	var mu sync.Mutex
	var grants int
	c, err := dagmutex.Open(dagmutex.Star(4), 1,
		dagmutex.WithTelemetry(reg),
		dagmutex.WithTraceObserver(func(e dagmutex.TraceEvent) {
			if e.Kind == dagmutex.TraceGrant {
				mu.Lock()
				grants++
				mu.Unlock()
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Metrics() != reg {
		t.Fatal("cluster does not report the registry it was opened with")
	}

	for id := dagmutex.ID(1); id <= 4; id++ {
		s := c.Session(id)
		if _, err := s.Acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := s.Release(); err != nil {
			t.Fatal(err)
		}
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "dagmutex_messages_total") {
		t.Fatalf("no messages gauge in %q", b.String())
	}
	mu.Lock()
	defer mu.Unlock()
	if grants != 4 {
		t.Fatalf("trace stream saw %d grants, want 4", grants)
	}
}

// TestGatewayDebugEndpoints drives a gateway opened with debug
// endpoints and scrapes the client-tier admission counters.
func TestGatewayDebugEndpoints(t *testing.T) {
	cfg := dagmutex.LockServiceConfig{Shards: 1, Nodes: 2}
	svc1, err := dagmutex.OpenLockService(cfg, dagmutex.WithTransport(dagmutex.TCP("")), dagmutex.WithMember(1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc1.Close()
	svc2, err := dagmutex.OpenLockService(cfg, dagmutex.WithTransport(dagmutex.TCP("")), dagmutex.WithMember(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	book := map[dagmutex.ID]string{1: svc1.Addr(), 2: svc2.Addr()}
	if err := svc1.Connect(book); err != nil {
		t.Fatal(err)
	}
	if err := svc2.Connect(book); err != nil {
		t.Fatal(err)
	}
	g, err := dagmutex.OpenGateway("", []string{svc1.Addr(), svc2.Addr()}, dagmutex.WithDebugAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.DebugAddr() == "" || g.Metrics() == nil {
		t.Fatal("gateway debug endpoints not armed")
	}

	conn, err := dagmutex.DialLockService(g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		h, err := conn.Acquire(ctx, "gw")
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.ReleaseHold(h); err != nil {
			t.Fatal(err)
		}
	}

	body := scrape(t, g.DebugAddr(), "/metrics")
	// Releases are exempt from admission, so only the 5 acquires count;
	// all 10 responses are frames, and one sequential client never lets
	// two of them share a write.
	for _, want := range []string{
		"dagmutex_client_conns 1",
		"dagmutex_client_admitted_total 5",
		"dagmutex_client_answered_total 5",
		`dagmutex_client_shed_total{reason="depth"} 0`,
		"dagmutex_client_frames_written_total 10",
		"dagmutex_client_write_batches_total 10",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
}
