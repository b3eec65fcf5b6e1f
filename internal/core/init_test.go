package core_test

import (
	"errors"
	"math/rand"
	"testing"

	"dagmutex/internal/cluster"
	"dagmutex/internal/core"
	"dagmutex/internal/mutex"
	"dagmutex/internal/sim"
	"dagmutex/internal/topology"
)

func neighborsOf(tree *topology.Tree) map[mutex.ID][]mutex.ID {
	m := make(map[mutex.ID][]mutex.ID, tree.N())
	for _, id := range tree.IDs() {
		m[id] = tree.Neighbors(id)
	}
	return m
}

func initConfig(tree *topology.Tree, holder mutex.ID) mutex.Config {
	return mutex.Config{IDs: tree.IDs(), Holder: holder, Neighbors: neighborsOf(tree)}
}

// TestInitOrientsEveryTreeTowardHolder runs the Figure 5 flood on random
// trees and checks the resulting NEXT pointers equal the static
// orientation ParentsToward computes — i.e. INIT reaches the same steady
// state the thesis assumes.
func TestInitOrientsEveryTreeTowardHolder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(20)
		tree := topology.Random(n, rng)
		holder := mutex.ID(rng.Intn(n) + 1)
		c, err := cluster.New(core.UninitializedBuilder, initConfig(tree, holder))
		if err != nil {
			t.Fatal(err)
		}
		c.Clock().AfterFunc(0, func() {
			h, ok := c.Node(holder).(*core.Node)
			if !ok {
				t.Fatal("holder is not a core node")
			}
			if err := h.StartInit(); err != nil {
				t.Fatal(err)
			}
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}

		// INIT costs exactly one INITIALIZE per edge: N-1 messages.
		if got := c.Counts().ByKind["INITIALIZE"]; got != int64(n-1) {
			t.Fatalf("n=%d: INITIALIZE count = %d, want %d", n, got, n-1)
		}
		want := tree.ParentsToward(holder)
		for _, id := range tree.IDs() {
			node := c.Node(id).(*core.Node)
			if !node.Initialized() {
				t.Fatalf("n=%d: node %d never initialized", n, id)
			}
			snap := node.Snapshot()
			if id == holder {
				if !snap.Holding || snap.Next != mutex.Nil {
					t.Fatalf("holder snapshot %+v", snap)
				}
				continue
			}
			if snap.Next != want[id] {
				t.Fatalf("n=%d holder=%d: NEXT_%d = %d, want %d", n, holder, id, snap.Next, want[id])
			}
		}
	}
}

// TestInitThenWorkload checks the dynamically initialized cluster serves
// a real workload indistinguishably from a statically configured one.
func TestInitThenWorkload(t *testing.T) {
	tree := topology.KAry(9, 2)
	c, err := cluster.New(core.UninitializedBuilder, initConfig(tree, 4), cluster.WithCSTime(sim.Hop))
	if err != nil {
		t.Fatal(err)
	}
	c.Clock().AfterFunc(0, func() {
		if err := c.Node(4).(*core.Node).StartInit(); err != nil {
			t.Fatal(err)
		}
	})
	// Requests start after the flood has certainly quiesced (depth < N hops).
	for i, id := range tree.IDs() {
		c.RequestAt(sim.Time(9+i)*sim.Hop, id)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := c.Entries(); got != 9 {
		t.Fatalf("entries = %d, want 9", got)
	}
}

func TestRequestBeforeInitFails(t *testing.T) {
	tree := topology.Line(3)
	env := nopEnv{}
	n, err := core.NewUninitialized(2, env, initConfig(tree, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Request(); !errors.Is(err, mutex.ErrBadConfig) {
		t.Fatalf("Request before INIT = %v", err)
	}
	if err := n.Deliver(1, core.Request{From: 1, Origin: 1}); !errors.Is(err, mutex.ErrUnexpectedMessage) {
		t.Fatalf("protocol message before INIT = %v", err)
	}
}

func TestStartInitGuards(t *testing.T) {
	tree := topology.Line(3)
	env := nopEnv{}
	// Non-holder cannot start the flood.
	n2, err := core.NewUninitialized(2, env, initConfig(tree, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := n2.StartInit(); !errors.Is(err, mutex.ErrBadConfig) {
		t.Fatalf("non-holder StartInit = %v", err)
	}
	// Statically initialized nodes reject StartInit.
	cfg := mutex.Config{IDs: tree.IDs(), Holder: 1, Parent: tree.ParentsToward(1)}
	n1, err := core.New(1, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.StartInit(); !errors.Is(err, mutex.ErrBadConfig) {
		t.Fatalf("static StartInit = %v", err)
	}
	// Double INITIALIZE is a protocol violation.
	u, err := core.NewUninitialized(2, env, initConfig(tree, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Deliver(1, core.Initialize{}); err != nil {
		t.Fatal(err)
	}
	if err := u.Deliver(3, core.Initialize{}); !errors.Is(err, mutex.ErrUnexpectedMessage) {
		t.Fatalf("second INITIALIZE = %v", err)
	}
}

func TestUninitializedRejectsBadConfig(t *testing.T) {
	env := nopEnv{}
	tree := topology.Line(3)
	// Missing neighbor map.
	cfg := mutex.Config{IDs: tree.IDs(), Holder: 1}
	if _, err := core.NewUninitialized(2, env, cfg); !errors.Is(err, mutex.ErrBadConfig) {
		t.Fatalf("missing neighbors = %v", err)
	}
	// Missing holder.
	cfg2 := initConfig(tree, 1)
	cfg2.Holder = mutex.Nil
	if _, err := core.NewUninitialized(2, env, cfg2); !errors.Is(err, mutex.ErrBadConfig) {
		t.Fatalf("missing holder = %v", err)
	}
}

type nopEnv struct{}

func (nopEnv) Send(mutex.ID, mutex.Message) {}
func (nopEnv) Granted(uint64)               {}
