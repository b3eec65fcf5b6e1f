package singhal

import (
	"errors"
	"math/rand"
	"testing"

	"dagmutex/internal/cluster"
	"dagmutex/internal/conformance"
	"dagmutex/internal/metrics"
	"dagmutex/internal/mutex"
	"dagmutex/internal/sim"
	"dagmutex/internal/workload"
)

func config(n int, holder mutex.ID) mutex.Config {
	ids := make([]mutex.ID, n)
	for i := range ids {
		ids[i] = mutex.ID(i + 1)
	}
	return mutex.Config{IDs: ids, Holder: holder}
}

func TestConformance(t *testing.T) {
	conformance.Run(t, conformance.Factory{Name: "singhal", Builder: Builder, Config: config})
}

func TestStaircaseInitialization(t *testing.T) {
	env := nopEnv{}
	// Holder 1: node i believes all j < i are requesting.
	n3, err := New(3, env, config(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range map[mutex.ID]state{1: stateR, 2: stateR, 3: stateN, 4: stateN, 5: stateN} {
		if got := n3.sv[j]; got != want {
			t.Fatalf("holder=1: sv3[%d] = %v, want %v", j, got, want)
		}
	}
	// Relabeled: holder 4 plays logical node 1.
	n2, err := New(2, env, config(5, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Logical order from holder 4: 4,5,1,2,3 — so node 2 believes 4, 5
	// and 1 (logically before it) are requesting.
	for j, want := range map[mutex.ID]state{4: stateR, 5: stateR, 1: stateR, 2: stateN, 3: stateN} {
		if got := n2.sv[j]; got != want {
			t.Fatalf("holder=4: sv2[%d] = %v, want %v", j, got, want)
		}
	}
	h, err := New(4, env, config(5, 4))
	if err != nil {
		t.Fatal(err)
	}
	if h.sv[4] != stateH || !h.hasToken {
		t.Fatal("holder must start in state H with the token")
	}
}

func TestFirstRequestCostsTwoMessages(t *testing.T) {
	// Node 2's initial belief set is {1} (the holder): one REQUEST, one
	// PRIVILEGE — far below Suzuki–Kasami's N for the same entry.
	c, err := cluster.New(Builder, config(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 2)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	counts := c.Counts()
	if counts.Messages != 2 {
		t.Fatalf("messages = %d, want 2 (heuristic targets only the holder)", counts.Messages)
	}
}

func TestHolderEntryIsFree(t *testing.T) {
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

func TestSynchronizationDelayIsOneHop(t *testing.T) {
	c, err := cluster.New(Builder, config(5, 1), cluster.WithCSTime(50*sim.Hop))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 1)
	c.RequestAt(sim.Hop, 2)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	ds := metrics.SyncDelays(c.Grants())
	if len(ds) != 1 || ds[0] != 1 {
		t.Fatalf("sync delays = %v, want [1]", ds)
	}
}

func TestMessagesStayAtOrBelowN(t *testing.T) {
	// §2.5: the upper bound matches Suzuki–Kasami's N per entry.
	const n = 6
	c, err := cluster.New(Builder, config(n, 1), cluster.WithCSTime(sim.Hop))
	if err != nil {
		t.Fatal(err)
	}
	const perNode = 8
	for i := 0; i < perNode; i++ {
		for j, id := range c.IDs() {
			c.RequestAt(c.Now()+sim.Time(i*n+j)*2*sim.Hop, id)
		}
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
	}
	per := metrics.MessagesPerEntry(c.Counts(), c.Entries())
	if per > float64(n) {
		t.Fatalf("messages per entry = %.2f, exceeds N = %d", per, n)
	}
}

func TestStaleRequestIgnored(t *testing.T) {
	env := &captureEnv{}
	h, err := New(1, env, config(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Deliver(2, request{Num: 1}); err != nil {
		t.Fatal(err)
	}
	if env.tokens != 1 {
		t.Fatalf("tokens = %d, want 1", env.tokens)
	}
	// The same request number again must not do anything (the holder no
	// longer has the token, and the stale check fires first regardless).
	if err := h.Deliver(2, request{Num: 1}); err != nil {
		t.Fatal(err)
	}
	if len(env.sent) != 1 {
		t.Fatalf("sent %d messages, want 1", len(env.sent))
	}
}

type captureEnv struct {
	tokens int
	sent   []mutex.Message
}

func (e *captureEnv) Send(_ mutex.ID, m mutex.Message) {
	e.sent = append(e.sent, m)
	if m.Kind() == "PRIVILEGE" {
		e.tokens++
	}
}
func (e *captureEnv) Granted(uint64) {}

func TestProtocolErrors(t *testing.T) {
	env := nopEnv{}
	n, err := New(2, env, config(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Release(); !errors.Is(err, mutex.ErrNotInCS) {
		t.Fatalf("Release = %v", err)
	}
	if err := n.Deliver(1, privilege{}); !errors.Is(err, mutex.ErrUnexpectedMessage) {
		t.Fatalf("unrequested token = %v", err)
	}
	if _, err := New(2, env, mutex.Config{IDs: []mutex.ID{1, 2}}); !errors.Is(err, mutex.ErrBadConfig) {
		t.Fatalf("missing holder = %v", err)
	}
}

type nopEnv struct{}

func (nopEnv) Send(mutex.ID, mutex.Message) {}
func (nopEnv) Granted(uint64)               {}

func TestStateStrings(t *testing.T) {
	if stateR.String() != "R" || stateH.String() != "H" || stateN.String() != "N" || stateE.String() != "E" {
		t.Fatal("state names")
	}
	if state(99).String() == "" {
		t.Fatal("unknown state must print")
	}
}

func TestStaircaseInvariantKeepsFallbackUnused(t *testing.T) {
	// The defensive broadcast in Request must never fire: Singhal's
	// staircase information structure guarantees a requester always
	// believes someone is requesting. Randomized loads across seeds.
	for seed := int64(1); seed <= 10; seed++ {
		c, err := cluster.New(Builder, config(8, 1),
			cluster.WithSeed(seed), cluster.WithCSTime(sim.Hop))
		if err != nil {
			t.Fatal(err)
		}
		workload.Closed{
			Requests: 12,
			Think:    workload.Exponential(3 * sim.Hop),
			Rng:      rand.New(rand.NewSource(seed * 131)),
		}.Install(c)
		if err := c.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, id := range c.IDs() {
			n := c.Node(id).(*Node)
			if got := n.FallbackBroadcasts(); got != 0 {
				t.Fatalf("seed %d: node %d used the fallback broadcast %d times", seed, id, got)
			}
		}
	}
}
