package lamport

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
	conformance.Run(t, conformance.Factory{Name: "lamport", Builder: Builder, Config: config})
}

func TestEntryCostsThreeNMinusOne(t *testing.T) {
	// §2.1: N−1 REQUESTs, N−1 ACKNOWLEDGEs, N−1 RELEASEs.
	for _, n := range []int{2, 4, 8} {
		c, err := cluster.New(Builder, config(n, 1))
		if err != nil {
			t.Fatal(err)
		}
		c.RequestAt(0, 2)
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		counts := c.Counts()
		if want := int64(3 * (n - 1)); counts.Messages != want {
			t.Fatalf("n=%d: messages = %d, want %d", n, counts.Messages, want)
		}
		for _, kind := range []string{"REQUEST", "ACKNOWLEDGE", "RELEASE"} {
			if counts.ByKind[kind] != int64(n-1) {
				t.Fatalf("n=%d: %s = %d, want %d", n, kind, counts.ByKind[kind], n-1)
			}
		}
	}
}

func TestTotalOrderRespectedUnderContention(t *testing.T) {
	c, err := cluster.New(Builder, config(5, 1), cluster.WithCSTime(sim.Hop))
	if err != nil {
		t.Fatal(err)
	}
	// Simultaneous requests: stamps tie on sequence, so ids break ties.
	c.RequestAt(0, 4)
	c.RequestAt(0, 2)
	c.RequestAt(0, 5)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	order := c.GrantOrder()
	want := []mutex.ID{2, 4, 5}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", order, want)
		}
	}
}

func TestQueueReplicasConvergeAtQuiescence(t *testing.T) {
	c, err := cluster.New(Builder, config(4, 1), cluster.WithCSTime(sim.Hop))
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range c.IDs() {
		c.RequestAt(sim.Time(i)*2*sim.Hop, id)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for _, id := range c.IDs() {
		n := c.Node(id).(*Node)
		if len(n.queue) != 0 {
			t.Fatalf("node %d queue not drained: %v", id, n.queue)
		}
	}
}

func TestClockMonotonicity(t *testing.T) {
	c, err := cluster.New(Builder, config(3, 1), cluster.WithCSTime(sim.Hop))
	if err != nil {
		t.Fatal(err)
	}
	last := make(map[mutex.ID]uint64)
	for round := 0; round < 4; round++ {
		for i, id := range c.IDs() {
			c.RequestAt(c.Now()+sim.Time(i+1)*3*sim.Hop, id)
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		for _, id := range c.IDs() {
			n := c.Node(id).(*Node)
			if now := n.clock.Now(); now < last[id] {
				t.Fatalf("node %d clock went backwards: %d -> %d", id, last[id], now)
			} else {
				last[id] = now
			}
		}
	}
}

func TestProtocolErrors(t *testing.T) {
	env := nopEnv{}
	n, err := New(1, env, config(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Release(); !errors.Is(err, mutex.ErrNotInCS) {
		t.Fatalf("Release = %v", err)
	}
	if err := n.Deliver(2, bogus{}); !errors.Is(err, mutex.ErrUnexpectedMessage) {
		t.Fatalf("bogus = %v", err)
	}
	if err := n.Request(); err != nil {
		t.Fatal(err)
	}
	if err := n.Request(); !errors.Is(err, mutex.ErrOutstanding) {
		t.Fatalf("double request = %v", err)
	}
}

type nopEnv struct{}

func (nopEnv) Send(mutex.ID, mutex.Message) {}
func (nopEnv) Granted(uint64)               {}

type bogus struct{}

func (bogus) Kind() string { return "BOGUS" }
func (bogus) Size() int    { return 0 }
