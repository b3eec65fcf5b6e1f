package simharness

import (
	"strings"
	"testing"
	"time"

	"dagmutex/internal/harness"
)

// openLoopBaseline is the open-loop run the baseline tests share: n
// nodes on a 4-ary tree, seed 1, 10 requesters for a simulated minute
// at the default think and hold.
func openLoopBaseline(t *testing.T, a harness.Algorithm, n int) Report {
	t.Helper()
	h, err := New(Config{Algorithm: a, Nodes: n, Topology: "kary4", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := h.Run(Workload{Duration: time.Minute, Requesters: 10})
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	if r.Grants < 100 || r.Recoveries != 0 || r.Regenerations != 0 {
		t.Fatalf("%s: %+v", a.Name, r)
	}
	return r
}

// TestOpenLoopRunsTheBaselines runs three of the eight baselines through
// the open-loop driver and checks each entry's message cost against its
// protocol: Ricart–Agrawala exactly 2(N−1) (a REQUEST and a REPLY per
// peer), Lamport exactly 3(N−1) (REQUEST, REPLY and RELEASE per peer),
// Suzuki–Kasami at most N (a broadcast and the token). Suzuki–Kasami's
// count depends on who already holds the token, so its run is repeated:
// the same seed must report the same run. The runs are 1 000 nodes; 200
// under -short, where the race detector makes a broadcast costly.
func TestOpenLoopRunsTheBaselines(t *testing.T) {
	n := int64(1000)
	if testing.Short() {
		n = 200
	}
	for _, c := range []struct {
		a    harness.Algorithm
		want int64 // exact messages per grant, 0 = bounded by n only
	}{
		{harness.RicartAgrawala, 2 * (n - 1)},
		{harness.Lamport, 3 * (n - 1)},
		{harness.SuzukiKasami, 0},
	} {
		r := openLoopBaseline(t, c.a, int(n))
		t.Logf("%s: %d grants, %.3f msgs/grant, %v wall", c.a.Name, r.Grants, r.MsgsPerGrant, r.WallDuration)
		if c.want > 0 {
			if r.Messages != c.want*r.Grants {
				t.Errorf("%s: %d messages for %d grants, want exactly %d per grant",
					c.a.Name, r.Messages, r.Grants, c.want)
			}
			continue
		}
		if r.MsgsPerGrant > float64(n) {
			t.Errorf("%s: %.3f msgs/grant, want <= %d", c.a.Name, r.MsgsPerGrant, n)
		}
		again := openLoopBaseline(t, c.a, int(n))
		if again.Grants != r.Grants || again.Messages != r.Messages || again.Events != r.Events {
			t.Errorf("%s: seed 1 replayed %+v, first run %+v", c.a.Name, again, r)
		}
	}
}

// TestNewRejectsDAGOptionsOnOtherProtocols: path compression and the
// trace are core's, so asking for either on another protocol is a
// configuration error, not a run that silently lacks them.
func TestNewRejectsDAGOptionsOnOtherProtocols(t *testing.T) {
	for _, cfg := range []Config{
		{Algorithm: harness.Raymond, Nodes: 5, Compress: true},
		{Algorithm: harness.Lamport, Nodes: 5, Trace: true},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New accepted %s with compress=%v trace=%v", cfg.Algorithm.Name, cfg.Compress, cfg.Trace)
		}
	}
	if _, err := New(Config{Algorithm: harness.DAG, Nodes: 5, Compress: true, Trace: true}); err != nil {
		t.Fatal(err)
	}
}

// TestCrashNeedsAMembershipHandler: a protocol without PeerDown
// (mutex.MembershipHandler) cannot take a fault schedule's verdicts, and
// the first one fails the run naming the node and its type.
func TestCrashNeedsAMembershipHandler(t *testing.T) {
	h, err := New(Config{Algorithm: harness.RicartAgrawala, Nodes: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h.ScheduleCrash(time.Second, 3, 100*time.Millisecond)
	_, err = h.Run(Workload{Duration: 10 * time.Second})
	if err == nil || !strings.Contains(err.Error(), "(*ricartagrawala.Node) cannot take a PeerDown verdict") {
		t.Fatalf("crash on ricart-agrawala: err = %v", err)
	}
}
