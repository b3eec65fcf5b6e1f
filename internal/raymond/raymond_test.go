package raymond

import (
	"errors"
	"testing"

	"dagmutex/internal/cluster"
	"dagmutex/internal/conformance"
	"dagmutex/internal/metrics"
	"dagmutex/internal/mutex"
	"dagmutex/internal/sim"
	"dagmutex/internal/topology"
)

func starConfig(n int, holder mutex.ID) mutex.Config {
	tree := topology.Star(n)
	return mutex.Config{IDs: tree.IDs(), Holder: holder, Parent: tree.ParentsToward(holder)}
}

func lineConfig(n int, holder mutex.ID) mutex.Config {
	tree := topology.Line(n)
	return mutex.Config{IDs: tree.IDs(), Holder: holder, Parent: tree.ParentsToward(holder)}
}

func TestConformanceOnStar(t *testing.T) {
	conformance.Run(t, conformance.Factory{Name: "raymond-star", Builder: Builder, Config: starConfig})
}

func TestConformanceOnLine(t *testing.T) {
	conformance.Run(t, conformance.Factory{Name: "raymond-line", Builder: Builder, Config: lineConfig})
}

func TestWorstCaseIsTwoDMessages(t *testing.T) {
	// §2.7: requester and token at opposite ends of a line: D REQUESTs
	// travel one way and D PRIVILEGEs travel back.
	const n = 6
	c, err := cluster.New(Builder, lineConfig(n, n))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 1)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	d := int64(n - 1)
	counts := c.Counts()
	if counts.Messages != 2*d {
		t.Fatalf("messages = %d, want %d (2D)", counts.Messages, 2*d)
	}
	if counts.ByKind["REQUEST"] != d || counts.ByKind["PRIVILEGE"] != d {
		t.Fatalf("by kind = %v, want %d of each", counts.ByKind, d)
	}
}

func TestStarWorstCaseIsFourMessages(t *testing.T) {
	// §6.1: Raymond on the centralized topology needs up to 2D = 4
	// messages (leaf -> center -> leaf each way), vs 3 for the DAG
	// algorithm.
	c, err := cluster.New(Builder, starConfig(7, 5))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 3) // leaf to leaf through the center
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.Counts().Messages; got != 4 {
		t.Fatalf("messages = %d, want 4", got)
	}
}

func TestHolderReentryIsFree(t *testing.T) {
	c, err := cluster.New(Builder, lineConfig(4, 2))
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

func TestSynchronizationDelayGrowsWithDistance(t *testing.T) {
	// §6.3: Raymond's synchronization delay is up to D. Put the exiting
	// holder and the waiter at opposite ends of a line of 5 (D = 4).
	c, err := cluster.New(Builder, lineConfig(5, 5), cluster.WithCSTime(100*sim.Hop))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 5)         // holder occupies its CS for a long time
	c.RequestAt(2*sim.Hop, 1) // waiter at the far end
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	ds := metrics.SyncDelays(c.Grants())
	if len(ds) != 1 || ds[0] != 4 {
		t.Fatalf("sync delays = %v, want [4] (D hops)", ds)
	}
}

func TestAskedSuppressesDuplicateRequests(t *testing.T) {
	// Two leaves request through the center: the center must forward only
	// one REQUEST to the token holder.
	c, err := cluster.New(Builder, starConfig(5, 2), cluster.WithCSTime(10*sim.Hop))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 3)
	c.RequestAt(0, 4)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// Requests: 3->1, 4->1 (leaves to center), center forwards exactly one
	// to holder 2 for the first, then one more after the token returns.
	counts := c.Counts()
	if counts.ByKind["REQUEST"] > 4 {
		t.Fatalf("REQUESTs = %d, ASKED flag failed to suppress duplicates (trace: %v)",
			counts.ByKind["REQUEST"], counts.ByKind)
	}
	if c.Entries() != 2 {
		t.Fatalf("entries = %d, want 2", c.Entries())
	}
}

func TestRejectsBadConfig(t *testing.T) {
	env := nopEnv{}
	if _, err := New(2, env, mutex.Config{IDs: []mutex.ID{1, 2}, Holder: 1}); !errors.Is(err, mutex.ErrBadConfig) {
		t.Fatalf("missing parent accepted: %v", err)
	}
	if _, err := New(2, env, mutex.Config{IDs: []mutex.ID{1, 2}, Holder: 1,
		Parent: map[mutex.ID]mutex.ID{2: 2}}); !errors.Is(err, mutex.ErrBadConfig) {
		t.Fatalf("self parent accepted: %v", err)
	}
}

type nopEnv struct{}

func (nopEnv) Send(mutex.ID, mutex.Message) {}
func (nopEnv) Granted(uint64)               {}

func TestProtocolErrors(t *testing.T) {
	env := nopEnv{}
	n, err := New(1, env, lineConfig(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Release(); !errors.Is(err, mutex.ErrNotInCS) {
		t.Fatalf("Release = %v", err)
	}
	if err := n.Deliver(2, privilege{}); !errors.Is(err, mutex.ErrUnexpectedMessage) {
		t.Fatalf("second token = %v", err)
	}
	if err := n.Deliver(2, bogus{}); !errors.Is(err, mutex.ErrUnexpectedMessage) {
		t.Fatalf("bogus = %v", err)
	}
}

type bogus struct{}

func (bogus) Kind() string { return "BOGUS" }
func (bogus) Size() int    { return 0 }

func TestQueueStorageGrowsUnderContention(t *testing.T) {
	c, err := cluster.New(Builder, starConfig(8, 1), cluster.WithCSTime(100*sim.Hop))
	if err != nil {
		t.Fatal(err)
	}
	storage := metrics.WatchStorage(c)
	for i := 2; i <= 8; i++ {
		c.RequestAt(sim.Time(i), mutex.ID(i))
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	r := storage()
	if r.PerNodeMax.QueueEntries < 2 {
		t.Fatalf("max queue = %d, want >= 2 (center aggregates requests)", r.PerNodeMax.QueueEntries)
	}
}
