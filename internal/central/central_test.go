package central

import (
	"errors"
	"testing"

	"dagmutex/internal/cluster"
	"dagmutex/internal/conformance"
	"dagmutex/internal/metrics"
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
	conformance.Run(t, conformance.Factory{
		Name:    "central",
		Builder: Builder,
		Config:  config,
	})
}

func TestRemoteEntryCostsExactlyThreeMessages(t *testing.T) {
	// §6.1: one REQUEST, one GRANT, one RELEASE.
	c, err := cluster.New(Builder, config(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 3)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	counts := c.Counts()
	if counts.Messages != 3 {
		t.Fatalf("messages = %d, want 3", counts.Messages)
	}
	for _, kind := range []string{"REQUEST", "GRANT", "RELEASE"} {
		if counts.ByKind[kind] != 1 {
			t.Fatalf("%s count = %d, want 1", kind, counts.ByKind[kind])
		}
	}
}

func TestCoordinatorEntryIsFree(t *testing.T) {
	c, err := cluster.New(Builder, config(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 2)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.Counts().Messages; got != 0 {
		t.Fatalf("messages = %d, want 0", got)
	}
}

func TestSynchronizationDelayIsTwoHops(t *testing.T) {
	// §6.3: RELEASE to the coordinator, then GRANT to the waiter.
	c, err := cluster.New(Builder, config(5, 1), cluster.WithCSTime(50*sim.Hop))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 2)
	c.RequestAt(sim.Hop, 3)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	ds := metrics.SyncDelays(c.Grants())
	if len(ds) != 1 || ds[0] != 2 {
		t.Fatalf("sync delays = %v, want [2]", ds)
	}
}

func TestCoordinatorToWaiterDelayIsOneHop(t *testing.T) {
	// When the coordinator itself exits, only the GRANT hop remains.
	c, err := cluster.New(Builder, config(5, 1), cluster.WithCSTime(50*sim.Hop))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 1)
	c.RequestAt(sim.Hop, 3)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	ds := metrics.SyncDelays(c.Grants())
	if len(ds) != 1 || ds[0] != 1 {
		t.Fatalf("sync delays = %v, want [1]", ds)
	}
}

func TestFIFOGrantOrder(t *testing.T) {
	c, err := cluster.New(Builder, config(6, 1), cluster.WithCSTime(20*sim.Hop))
	if err != nil {
		t.Fatal(err)
	}
	// All requests arrive while node 2's section is pending/held.
	c.RequestAt(0, 2)
	c.RequestAt(1, 5)
	c.RequestAt(2, 3)
	c.RequestAt(3, 4)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	want := []mutex.ID{2, 5, 3, 4}
	got := c.GrantOrder()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order %v, want %v", got, want)
		}
	}
}

func TestRejectsBadConfig(t *testing.T) {
	env := nopEnv{}
	if _, err := New(1, env, mutex.Config{IDs: []mutex.ID{1, 2}}); !errors.Is(err, mutex.ErrBadConfig) {
		t.Fatalf("missing coordinator accepted: %v", err)
	}
	if _, err := New(1, env, mutex.Config{IDs: []mutex.ID{1}, Holder: 9}); !errors.Is(err, mutex.ErrBadConfig) {
		t.Fatalf("unknown coordinator accepted: %v", err)
	}
}

type nopEnv struct{}

func (nopEnv) Send(mutex.ID, mutex.Message) {}
func (nopEnv) Granted(uint64)               {}

func TestProtocolErrors(t *testing.T) {
	env := nopEnv{}
	n, err := New(2, env, config(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Release(); !errors.Is(err, mutex.ErrNotInCS) {
		t.Fatalf("Release = %v", err)
	}
	if err := n.Deliver(1, request{}); !errors.Is(err, mutex.ErrUnexpectedMessage) {
		t.Fatalf("REQUEST at non-coordinator = %v", err)
	}
	if err := n.Deliver(1, grant{}); !errors.Is(err, mutex.ErrUnexpectedMessage) {
		t.Fatalf("GRANT without request = %v", err)
	}
	coord, err := New(1, env, config(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Deliver(2, release{}); !errors.Is(err, mutex.ErrUnexpectedMessage) {
		t.Fatalf("RELEASE while idle = %v", err)
	}
}

func TestStorageGrowsWithQueue(t *testing.T) {
	c, err := cluster.New(Builder, config(6, 1), cluster.WithCSTime(100*sim.Hop))
	if err != nil {
		t.Fatal(err)
	}
	storage := metrics.WatchStorage(c)
	for i := 2; i <= 6; i++ {
		c.RequestAt(sim.Time(i), mutex.ID(i))
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	r := storage()
	if r.PerNodeMax.QueueEntries < 3 {
		t.Fatalf("coordinator queue max = %d, want >= 3", r.PerNodeMax.QueueEntries)
	}
}
