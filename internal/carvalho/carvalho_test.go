package carvalho

import (
	"errors"
	"testing"

	"dagmutex/internal/cluster"
	"dagmutex/internal/conformance"
	"dagmutex/internal/mutex"
	"dagmutex/internal/sim"
)

func config(n int, holder mutex.ID) mutex.Config {
	ids := make([]mutex.ID, n)
	for i := range ids {
		ids[i] = mutex.ID(i + 1)
	}
	return mutex.Config{IDs: ids, Holder: holder}
}

func TestConformance(t *testing.T) {
	conformance.Run(t, conformance.Factory{Name: "carvalho-roucairol", Builder: Builder, Config: config})
}

func TestRepeatEntriesAreFree(t *testing.T) {
	// §2.3: a node re-entering with no interleaved foreign requests pays
	// zero messages after the first acquisition.
	const n = 6
	c, err := cluster.New(Builder, config(n, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c.RequestAt(sim.Time(i)*100*sim.Hop, 3)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.Counts().Messages; got != 0 {
		t.Fatalf("messages = %d, want 0 (holder started with all permissions)", got)
	}
	if c.Entries() != 5 {
		t.Fatalf("entries = %d, want 5", c.Entries())
	}
}

func TestFirstEntryWithoutPermissionsCostsUpToTwoNMinusOne(t *testing.T) {
	// Node n starts holding only the permissions of higher-id pairs (none)
	// minus the holder's: it must collect N−1, costing 2(N−1).
	const n = 5
	c, err := cluster.New(Builder, config(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, n)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	want := int64(2 * (n - 1))
	if got := c.Counts().Messages; got != want {
		t.Fatalf("messages = %d, want %d", got, want)
	}
}

func TestMessagesDecreaseWithLocality(t *testing.T) {
	// Alternating entries between two nodes only exchange the pair
	// permission between those two: 2 messages per entry after warm-up,
	// regardless of N.
	const n = 8
	c, err := cluster.New(Builder, config(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: node 2 acquires everything once.
	c.RequestAt(0, 2)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	warmup := c.Counts().Messages

	// Now nodes 2 and 3 alternate far apart in time.
	for i := 0; i < 3; i++ {
		c.RequestAt(c.Now()+sim.Time(2*i+1)*100*sim.Hop, 3)
		c.RequestAt(c.Now()+sim.Time(2*i+2)*100*sim.Hop, 2)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	perEntry := float64(c.Counts().Messages-warmup) / 6.0
	// Node 3's first acquisition still needs several permissions; later
	// swaps cost exactly 2. The average must sit well below 2(N−1) = 14.
	if perEntry >= 6 {
		t.Fatalf("messages per entry = %.1f, want < 6 (locality should pay off)", perEntry)
	}
}

func TestPairPermissionInvariant(t *testing.T) {
	// After any quiescent run, each pair's permission is held by exactly
	// one side.
	const n = 5
	c, err := cluster.New(Builder, config(n, 1), cluster.WithCSTime(sim.Hop))
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range c.IDs() {
		c.RequestAt(sim.Time(i)*3*sim.Hop, id)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for _, a := range c.IDs() {
		for _, b := range c.IDs() {
			if a >= b {
				continue
			}
			na := c.Node(a).(*Node)
			nb := c.Node(b).(*Node)
			holdA, holdB := na.auth[b], nb.auth[a]
			if holdA == holdB {
				t.Fatalf("pair (%d,%d): both sides report auth=%v", a, b, holdA)
			}
		}
	}
}

func TestSurrenderReissuesRequest(t *testing.T) {
	// A requesting node that loses to an earlier stamp must hand over the
	// permission and immediately re-request it, or it would hang.
	c, err := cluster.New(Builder, config(3, 1), cluster.WithCSTime(5*sim.Hop))
	if err != nil {
		t.Fatal(err)
	}
	// Node 3 requests slightly after node 2 issued its own request, so
	// node 3's stamp loses and it must surrender mid-request.
	c.RequestAt(0, 2)
	c.RequestAt(sim.Hop/2, 3)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Entries() != 2 {
		t.Fatalf("entries = %d, want 2", c.Entries())
	}
}

func TestProtocolErrors(t *testing.T) {
	env := nopEnv{}
	n, err := New(2, env, config(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Release(); !errors.Is(err, mutex.ErrNotInCS) {
		t.Fatalf("Release = %v", err)
	}
	if err := n.Deliver(1, reply{}); !errors.Is(err, mutex.ErrUnexpectedMessage) {
		t.Fatalf("stray REPLY = %v", err)
	}
	if _, err := New(2, env, mutex.Config{IDs: []mutex.ID{1, 2}}); !errors.Is(err, mutex.ErrBadConfig) {
		t.Fatalf("missing holder = %v", err)
	}
}

type nopEnv struct{}

func (nopEnv) Send(mutex.ID, mutex.Message) {}
func (nopEnv) Granted(uint64)               {}
