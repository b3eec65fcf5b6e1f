package cluster

import (
	"errors"
	"testing"
	"time"

	"dagmutex/internal/core"
	"dagmutex/internal/mutex"
	"dagmutex/internal/sim"
	"dagmutex/internal/topology"
)

func dagConfig(tree *topology.Tree, holder mutex.ID) mutex.Config {
	return mutex.Config{IDs: tree.IDs(), Holder: holder, Parent: tree.ParentsToward(holder)}
}

func TestSingleRemoteRequestOnLine(t *testing.T) {
	// Line of 5, token at node 5, request from node 1: the request crosses
	// D = 4 edges and the token comes straight back — D+1 = 5 messages.
	tree := topology.Line(5)
	c, err := New(core.Builder, dagConfig(tree, 5))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 1)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Entries() != 1 {
		t.Fatalf("entries = %d, want 1", c.Entries())
	}
	if got := c.Counts().Messages; got != 5 {
		t.Fatalf("messages = %d, want 5 (D requests + 1 privilege)", got)
	}
	if got := c.Counts().ByKind["REQUEST"]; got != 4 {
		t.Fatalf("REQUESTs = %d, want 4", got)
	}
	if got := c.Counts().ByKind["PRIVILEGE"]; got != 1 {
		t.Fatalf("PRIVILEGEs = %d, want 1", got)
	}
}

func TestHolderRequestCostsNothing(t *testing.T) {
	tree := topology.Star(4)
	c, err := New(core.Builder, dagConfig(tree, 1))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 1)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.Counts().Messages; got != 0 {
		t.Fatalf("messages = %d, want 0", got)
	}
	if c.Entries() != 1 {
		t.Fatalf("entries = %d, want 1", c.Entries())
	}
}

func TestGrantOrderFollowsImplicitQueue(t *testing.T) {
	// Reproduce the Figure 6 schedule through the simulator: with node 3
	// initially holding and requests arriving 2, then 1, then 5, the grant
	// order must be 3's own entry then 2, 1, 5.
	tree, holder := topology.Figure6()
	c, err := New(core.Builder, dagConfig(tree, holder), WithCSTime(20*sim.Hop))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 3)
	c.RequestAt(1, 2)
	c.RequestAt(2, 1)
	c.RequestAt(3, 5)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	want := []mutex.ID{3, 2, 1, 5}
	got := c.GrantOrder()
	if len(got) != len(want) {
		t.Fatalf("grant order %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order %v, want %v", got, want)
		}
	}
}

func TestGrantRecordsWaitedAndSyncDelay(t *testing.T) {
	// Node 2 requests while node 1 occupies the CS for a long time; node
	// 2's grant is a waiting grant with sync delay exactly one hop (the
	// single PRIVILEGE message).
	tree := topology.Star(3)
	c, err := New(core.Builder, dagConfig(tree, 1), WithCSTime(50*sim.Hop))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 1)
	c.RequestAt(sim.Hop, 2) // well before node 1 exits at t=50·Hop
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	grants := c.Grants()
	if len(grants) != 2 {
		t.Fatalf("grants = %d, want 2", len(grants))
	}
	g := grants[1]
	if !g.Waited() {
		t.Fatalf("grant %+v should be a waiting grant", g)
	}
	d, ok := g.SyncDelayHops(sim.Hop)
	if !ok || d != 1 {
		t.Fatalf("sync delay = %v (ok=%v), want exactly 1 hop", d, ok)
	}
	if grants[0].Waited() {
		t.Fatal("first grant can never be a waiting grant")
	}
}

func TestDeadlockDetection(t *testing.T) {
	// Drop every PRIVILEGE: requests can never be served, and Run must
	// report the deadlock instead of hanging.
	tree := topology.Line(3)
	c, err := New(core.Builder, dagConfig(tree, 3),
		WithNetworkOptions(sim.WithDropRule(func(_, _ mutex.ID, m mutex.Message) bool {
			return m.Kind() == "PRIVILEGE"
		})))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 1)
	err = c.Run()
	var dead *DeadlockError
	if !errors.As(err, &dead) {
		t.Fatalf("Run error = %v, want DeadlockError", err)
	}
	if len(dead.Pending) != 1 || dead.Pending[0] != 1 {
		t.Fatalf("pending = %v, want [1]", dead.Pending)
	}
}

func TestMutualExclusionViolationDetected(t *testing.T) {
	// A deliberately broken builder that grants immediately without any
	// protocol: two overlapping grants must be flagged.
	broken := func(id mutex.ID, env mutex.Env, cfg mutex.Config) (mutex.Node, error) {
		return &alwaysYes{id: id, env: env}, nil
	}
	cfg := mutex.Config{IDs: []mutex.ID{1, 2}}
	c, err := New(broken, cfg, WithCSTime(10*sim.Hop))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 1)
	c.RequestAt(1, 2)
	err = c.Run()
	var viol *MutualExclusionError
	if !errors.As(err, &viol) {
		t.Fatalf("Run error = %v, want MutualExclusionError", err)
	}
	if viol.Holder != 1 || viol.Intruder != 2 {
		t.Fatalf("violation %+v", viol)
	}
}

// alwaysYes is an intentionally unsafe protocol used to test the monitor.
type alwaysYes struct {
	id   mutex.ID
	env  mutex.Env
	inCS bool
}

func (a *alwaysYes) ID() mutex.ID { return a.id }
func (a *alwaysYes) Request() error {
	a.inCS = true
	a.env.Granted(0)
	return nil
}
func (a *alwaysYes) Release() error {
	a.inCS = false
	return nil
}
func (a *alwaysYes) Deliver(mutex.ID, mutex.Message) error { return nil }
func (a *alwaysYes) Storage() mutex.Storage                { return mutex.Storage{} }

func TestLivelockGuard(t *testing.T) {
	// A protocol that ping-pongs messages forever must trip the event
	// limit rather than spin.
	pingpong := func(id mutex.ID, env mutex.Env, cfg mutex.Config) (mutex.Node, error) {
		return &echoNode{id: id, env: env, peer: cfg.IDs[(int(id))%len(cfg.IDs)]}, nil
	}
	cfg := mutex.Config{IDs: []mutex.ID{1, 2}}
	c, err := New(pingpong, cfg, WithEventLimit(500))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 1)
	if err := c.Run(); !errors.Is(err, ErrLivelock) {
		t.Fatalf("Run error = %v, want ErrLivelock", err)
	}
}

type echoNode struct {
	id   mutex.ID
	env  mutex.Env
	peer mutex.ID
}

type ping struct{}

func (ping) Kind() string { return "PING" }
func (ping) Size() int    { return 0 }

func (e *echoNode) ID() mutex.ID { return e.id }
func (e *echoNode) Request() error {
	e.env.Send(e.peer, ping{})
	return nil
}
func (e *echoNode) Release() error { return nil }
func (e *echoNode) Deliver(from mutex.ID, m mutex.Message) error {
	e.env.Send(from, ping{})
	return nil
}
func (e *echoNode) Storage() mutex.Storage { return mutex.Storage{} }

func TestDoubleOutstandingRequestFlagged(t *testing.T) {
	tree := topology.Line(3)
	c, err := New(core.Builder, dagConfig(tree, 3), WithCSTime(100*sim.Hop))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 1)
	c.RequestAt(1, 1) // second request while the first is outstanding
	if err := c.Run(); err == nil {
		t.Fatal("cluster accepted a duplicate outstanding request")
	}
}

func TestManualRelease(t *testing.T) {
	tree := topology.Line(2)
	c, err := New(core.Builder, dagConfig(tree, 1), WithoutAutoRelease())
	if err != nil {
		t.Fatal(err)
	}
	granted := 0
	c.OnGrant(func(Grant) { granted++ })
	c.RequestAt(0, 2)
	c.Clock().Advance(time.Duration(10 * sim.Hop))
	if granted != 1 {
		t.Fatalf("granted = %d, want 1", granted)
	}
	c.ReleaseNow(2)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	g := c.Grants()
	if len(g) != 1 || g[0].ExitAt < 0 {
		t.Fatalf("grants = %+v", g)
	}
}
