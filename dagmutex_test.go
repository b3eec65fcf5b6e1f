//lint:file-ignore SA1019 these tests pin the behavior of the deprecated pre-v2 constructors, which must keep working until removal
package dagmutex_test

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dagmutex"
)

func TestClusterLifecycle(t *testing.T) {
	tree := dagmutex.Star(6)
	c, err := dagmutex.Open(tree, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Tree().N() != 6 {
		t.Fatalf("tree N = %d", c.Tree().N())
	}

	var inCS atomic.Int32
	var wg sync.WaitGroup
	for _, id := range tree.IDs() {
		h := c.Session(id)
		if h == nil {
			t.Fatalf("nil handle for node %d", id)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for i := 0; i < 5; i++ {
				if _, err := h.Acquire(ctx); err != nil {
					t.Errorf("acquire %d: %v", h.ID(), err)
					return
				}
				if got := inCS.Add(1); got != 1 {
					t.Errorf("%d holders in CS", got)
				}
				inCS.Add(-1)
				if err := h.Release(); err != nil {
					t.Errorf("release %d: %v", h.ID(), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestNewClusterRejectsBadHolder(t *testing.T) {
	if _, err := dagmutex.Open(dagmutex.Star(3), 9); err == nil {
		t.Fatal("holder outside the tree accepted")
	}
	if _, err := dagmutex.Open(dagmutex.Star(3), dagmutex.Nil); err == nil {
		t.Fatal("nil holder accepted")
	}
}

func TestTreeConfigOrientsTowardHolder(t *testing.T) {
	cfg, err := dagmutex.TreeConfig(dagmutex.Line(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Parent[1] != 2 || cfg.Parent[2] != 3 || cfg.Parent[3] != 4 {
		t.Fatalf("parents %v", cfg.Parent)
	}
	if _, ok := cfg.Parent[4]; ok {
		t.Fatal("holder must have no parent")
	}
}

func TestSimulateDefaultsToDAG(t *testing.T) {
	res, err := dagmutex.Simulate(dagmutex.Star(10), 1, dagmutex.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "dag" {
		t.Fatalf("algorithm = %q", res.Algorithm)
	}
	if res.Entries != 10*5 {
		t.Fatalf("entries = %d, want 50", res.Entries)
	}
	if res.MessagesPerEntry > 3 {
		t.Fatalf("msgs/entry = %.2f on a star, want <= 3", res.MessagesPerEntry)
	}
	// The FIFO clamp may add one tick (0.001 hop) to an arrival time, so
	// allow a hair above the exact single hop.
	if res.MaxSyncDelayHops > 1.01 {
		t.Fatalf("max sync delay = %.3f, want ~1", res.MaxSyncDelayHops)
	}
}

func TestSimulateEveryAlgorithm(t *testing.T) {
	for _, name := range dagmutex.AlgorithmNames() {
		res, err := dagmutex.Simulate(dagmutex.Star(9), 1, dagmutex.SimOptions{
			Algorithm:       name,
			RequestsPerNode: 3,
			ThinkHops:       4,
			Seed:            2,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Entries != 27 {
			t.Fatalf("%s: entries = %d, want 27", name, res.Entries)
		}
	}
}

func TestSimulateUnknownAlgorithm(t *testing.T) {
	_, err := dagmutex.Simulate(dagmutex.Star(3), 1, dagmutex.SimOptions{Algorithm: "bogus"})
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("err = %v", err)
	}
}

func TestAlgorithmNamesListsDAGFirst(t *testing.T) {
	names := dagmutex.AlgorithmNames()
	if len(names) != 9 || names[0] != "dag" {
		t.Fatalf("names = %v", names)
	}
}

func TestTCPPeerSmoke(t *testing.T) {
	tree := dagmutex.Line(3)
	peers := make([]*dagmutex.Peer, 0, 3)
	addrs := make(map[dagmutex.ID]string, 3)
	for _, id := range tree.IDs() {
		p, err := dagmutex.OpenPeer(tree, 2, id)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		peers = append(peers, p)
		addrs[id] = p.Addr()
	}
	for _, p := range peers {
		p.Connect(addrs)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, p := range peers {
		if _, err := p.Acquire(ctx); err != nil {
			t.Fatalf("node %d acquire: %v", p.ID(), err)
		}
		if err := p.Release(); err != nil {
			t.Fatalf("node %d release: %v", p.ID(), err)
		}
	}
	for _, p := range peers {
		if err := p.Err(); err != nil {
			t.Fatalf("node %d: %v", p.ID(), err)
		}
	}
}

func TestClusterWithINITServesWorkload(t *testing.T) {
	tree := dagmutex.KAry(10, 3)
	c, err := dagmutex.Open(tree, 7, dagmutex.WithINIT())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The INIT flood costs one INITIALIZE per edge.
	if got := c.Messages(); got != int64(tree.N()-1) {
		t.Fatalf("INIT messages = %d, want %d", got, tree.N()-1)
	}
	var wg sync.WaitGroup
	for _, id := range tree.IDs() {
		h := c.Session(id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for i := 0; i < 3; i++ {
				if _, err := h.Acquire(ctx); err != nil {
					t.Errorf("acquire %d: %v", h.ID(), err)
					return
				}
				if err := h.Release(); err != nil {
					t.Errorf("release %d: %v", h.ID(), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterWithINITRejectsBadHolder(t *testing.T) {
	if _, err := dagmutex.Open(dagmutex.Star(3), 9, dagmutex.WithINIT()); err == nil {
		t.Fatal("holder outside tree accepted")
	}
}
