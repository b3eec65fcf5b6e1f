package suzukikasami

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
	conformance.Run(t, conformance.Factory{Name: "suzuki-kasami", Builder: Builder, Config: config})
}

func TestRemoteEntryCostsNMessages(t *testing.T) {
	// §2.4: N−1 broadcast REQUESTs plus one PRIVILEGE.
	const n = 7
	c, err := cluster.New(Builder, config(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 4)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	counts := c.Counts()
	if counts.Messages != n {
		t.Fatalf("messages = %d, want %d", counts.Messages, n)
	}
	if counts.ByKind["REQUEST"] != n-1 || counts.ByKind["PRIVILEGE"] != 1 {
		t.Fatalf("by kind = %v", counts.ByKind)
	}
}

func TestHolderEntryIsFree(t *testing.T) {
	c, err := cluster.New(Builder, config(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 3)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.Counts().Messages; got != 0 {
		t.Fatalf("messages = %d, want 0", got)
	}
}

func TestSynchronizationDelayIsOneHop(t *testing.T) {
	// §6.3: the token moves directly to the next requester.
	c, err := cluster.New(Builder, config(6, 1), cluster.WithCSTime(50*sim.Hop))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 1)
	c.RequestAt(sim.Hop, 4)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	ds := metrics.SyncDelays(c.Grants())
	if len(ds) != 1 || ds[0] != 1 {
		t.Fatalf("sync delays = %v, want [1]", ds)
	}
}

func TestStaleRequestsDoNotStealToken(t *testing.T) {
	// After node 2's request is satisfied, replaying its old request
	// number at the holder must not trigger another token transfer. The
	// LN array inside the token is exactly what detects this.
	env := &captureEnv{}
	holder, err := New(1, env, config(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Node 2 requests (request number 1), token goes out.
	if err := holder.Deliver(2, request{Num: 1}); err != nil {
		t.Fatal(err)
	}
	if env.tokens != 1 {
		t.Fatalf("tokens sent = %d, want 1", env.tokens)
	}
	// Duplicate/stale delivery of the same request number: no token (the
	// holder no longer even has it, but RN=LN catches it regardless).
	if err := holder.Deliver(2, request{Num: 1}); err != nil {
		t.Fatal(err)
	}
	if env.tokens != 1 {
		t.Fatalf("tokens sent = %d after stale request, want 1", env.tokens)
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

func TestTokenQueueServesAllWaiters(t *testing.T) {
	c, err := cluster.New(Builder, config(5, 1), cluster.WithCSTime(30*sim.Hop))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestAt(0, 1)
	c.RequestAt(sim.Hop, 2)
	c.RequestAt(2*sim.Hop, 3)
	c.RequestAt(3*sim.Hop, 4)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.Entries(); got != 4 {
		t.Fatalf("entries = %d, want 4", got)
	}
}

func TestTokenCarriesArraysAndQueue(t *testing.T) {
	// §6.4: the Suzuki–Kasami token is heavy — LN plus a queue — unlike
	// the DAG algorithm's empty PRIVILEGE.
	tok := privilege{
		LN:    map[mutex.ID]uint64{1: 0, 2: 1, 3: 0},
		Queue: []mutex.ID{3},
	}
	want := 3*2*mutex.IntSize + 1*mutex.IntSize
	if got := tok.Size(); got != want {
		t.Fatalf("token size = %d, want %d", got, want)
	}
	if got := (request{}).Size(); got != 2*mutex.IntSize {
		t.Fatalf("request size = %d, want %d", got, 2*mutex.IntSize)
	}
}

func TestStorageScalesWithN(t *testing.T) {
	c, err := cluster.New(Builder, config(9, 1))
	if err != nil {
		t.Fatal(err)
	}
	storage := metrics.WatchStorage(c)
	c.RequestAt(0, 5)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	r := storage()
	// Every node keeps an N-entry RN array; the holder also keeps LN.
	if r.PerNodeMax.ArrayEntries < 9 {
		t.Fatalf("per-node array entries = %d, want >= 9", r.PerNodeMax.ArrayEntries)
	}
}

func TestProtocolErrors(t *testing.T) {
	env := &captureEnv{}
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
