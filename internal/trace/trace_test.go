package trace

import (
	"strings"
	"testing"

	"dagmutex/internal/cluster"
	"dagmutex/internal/core"
	"dagmutex/internal/mutex"
	"dagmutex/internal/sim"
	"dagmutex/internal/telemetry"
	"dagmutex/internal/topology"
)

func TestLogCapturesRunEvents(t *testing.T) {
	tree := topology.Line(3)
	cfg := mutex.Config{IDs: tree.IDs(), Holder: 3, Parent: tree.ParentsToward(3)}
	l := NewLog()
	c, err := cluster.New(core.Builder, cfg,
		cluster.WithNetworkOptions(sim.WithObserver(Observer(l))))
	if err != nil {
		t.Fatal(err)
	}
	Attach(l, c)
	c.RequestAt(0, 1)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if _, err := l.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"REQUEST", "PRIVILEGE", "ENTER", "EXIT", "origin 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
	if len(l.Events()) < 4 {
		t.Fatalf("too few events: %d", len(l.Events()))
	}
}

// TestLogRecordsLiveTraceStream wires the runtime's structured trace
// observer into a simulation log: the simulated run's lines must come
// out in the exact live-telemetry vocabulary (REQUEST/PRIVILEGE/GRANT
// with origin= and fence=), time-stamped by the simulator clock.
func TestLogRecordsLiveTraceStream(t *testing.T) {
	tree := topology.Line(3)
	cfg := mutex.Config{IDs: tree.IDs(), Holder: 3, Parent: tree.ParentsToward(3)}
	l := NewLog()
	var c *cluster.Cluster
	builder := func(id mutex.ID, env mutex.Env, mc mutex.Config) (mutex.Node, error) {
		return core.New(id, env, mc, core.WithTraceObserver(func(e telemetry.TraceEvent) {
			l.AddEvent(c.Now(), e)
		}))
	}
	c, err := cluster.New(builder, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 1)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if _, err := l.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"node 1 REQUEST -> 2 origin=1",
		"node 2 FORWARD -> 3 origin=1 hops=1",
		"node 3 PRIVILEGE -> 1 origin=1 hops=2",
		"node 1 GRANT origin=1 fence=1 hops=2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("live-vocabulary trace missing %q:\n%s", want, out)
		}
	}
}

func TestStateTableMatchesThesisLayout(t *testing.T) {
	snaps := []core.Snapshot{
		{ID: 1, Next: 2, Follow: 5},
		{ID: 2, Next: 5, Follow: 1},
		{ID: 3, Next: 2, Follow: 2},
		{ID: 4, Next: 3},
		{ID: 5},
		{ID: 6, Next: 4},
	}
	got := StateTable(snaps)
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), got)
	}
	if !strings.HasPrefix(lines[0], "I") ||
		!strings.HasPrefix(lines[1], "HOLDING_I") ||
		!strings.HasPrefix(lines[2], "NEXT_I") ||
		!strings.HasPrefix(lines[3], "FOLLOW_I") {
		t.Fatalf("unexpected rows:\n%s", got)
	}
	// Node 5's NEXT is 0 and renders blank, like the thesis tables.
	if strings.Contains(lines[2], "0") {
		t.Fatalf("nil NEXT should render blank:\n%s", got)
	}
	if !strings.Contains(lines[3], "5") {
		t.Fatalf("FOLLOW_1 = 5 missing:\n%s", got)
	}
}

func TestHoldingRendersTrueFlag(t *testing.T) {
	got := StateTable([]core.Snapshot{{ID: 1, Holding: true}, {ID: 2, Next: 1}})
	lines := strings.Split(got, "\n")
	if !strings.Contains(lines[1], "t") || strings.Count(lines[1], "f") != 1 {
		t.Fatalf("HOLDING row wrong:\n%s", got)
	}
}
