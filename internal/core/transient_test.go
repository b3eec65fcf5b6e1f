package core

import (
	"slices"
	"testing"
	"testing/quick"

	"dagmutex/internal/mutex"
	"dagmutex/internal/topology"
)

// TestTransientSinkBoundTwoRequesters pins §3.3's claim: with two nodes
// requesting at about the same time there are at most THREE sinks while
// the requests are in transit, and exactly one at quiescence. The test
// drives the crossing-requests schedule deterministically and counts
// sinks after every delivery.
func TestTransientSinkBoundTwoRequesters(t *testing.T) {
	tree := topology.Line(4) // 1-2-3-4, token at 4
	w := newWorld(t, tree, 4)

	countSinks := func() int {
		sinks := 0
		for _, s := range w.Snapshots() {
			if s.Next == mutex.Nil {
				sinks++
			}
		}
		return sinks
	}

	// Nodes 1 and 2 request concurrently: each becomes a sink, and the
	// old sink (node 4) still is one — three in total.
	w.request(1)
	w.request(2)
	if got := countSinks(); got != 3 {
		t.Fatalf("sinks after both requests = %d, want 3 (old sink + 2 requesters)", got)
	}

	maxSinks := 3
	for len(w.Pending) > 0 {
		w.deliverTo(w.Pending[0].To)
		if got := countSinks(); got > maxSinks {
			t.Fatalf("sink count %d exceeds the §3.3 transient bound of 3", got)
		}
		// Serve any node that got the token so the run drains.
		for id, g := range w.Grants {
			if g.Count > 0 && w.Nodes[id].Snapshot().InCS {
				w.release(mutex.ID(id))
			}
		}
	}
	if got := countSinks(); got != 1 {
		t.Fatalf("sinks at quiescence = %d, want 1", got)
	}
}

// TestQuickRandomSchedulesPreserveInvariants is a testing/quick property:
// for a random star/line size, a random holder, and a random subset of
// requesters, a fully drained run leaves exactly one token holder, one
// sink, empty FOLLOW chains, and every requester served exactly once.
func TestQuickRandomSchedulesPreserveInvariants(t *testing.T) {
	property := func(nRaw, holderRaw uint8, reqMask uint16, useLine bool) bool {
		n := int(nRaw%10) + 2
		var tree *topology.Tree
		if useLine {
			tree = topology.Line(n)
		} else {
			tree = topology.Star(n)
		}
		holder := mutex.ID(int(holderRaw)%n + 1)
		w, err := NewWorld(mutex.Config{IDs: tree.IDs(), Holder: holder, Parent: tree.ParentsToward(holder)})
		if err != nil {
			return false
		}

		requesters := make([]mutex.ID, 0, n)
		for i := 0; i < n; i++ {
			if reqMask&(1<<uint(i)) != 0 {
				requesters = append(requesters, mutex.ID(i+1))
			}
		}
		for _, r := range requesters {
			if w.Nodes[r].Request() != nil {
				return false
			}
		}
		// Drain: deliver FIFO; release whenever someone is in the CS.
		for steps := 0; ; steps++ {
			if steps > 100000 {
				return false
			}
			progressed := false
			for id := mutex.ID(1); int(id) <= n; id++ {
				if w.Nodes[id].Snapshot().InCS {
					if w.Nodes[id].Release() != nil {
						return false
					}
					progressed = true
				}
			}
			if len(w.Pending) > 0 {
				if _, err := w.DeliverTo(w.Pending[0].To); err != nil {
					return false
				}
				progressed = true
			}
			if !progressed {
				break
			}
		}

		// Invariants at quiescence.
		holders, sinks := 0, 0
		for _, s := range w.Snapshots() {
			if s.HasToken() {
				holders++
			}
			if s.Next == mutex.Nil {
				sinks++
			}
			if s.Follow != mutex.Nil || s.Requesting || s.InCS {
				return false
			}
		}
		if holders != 1 || sinks != 1 {
			return false
		}
		// Every requester granted exactly once; non-requesters never.
		for id, g := range w.Grants[1:] {
			want := 0
			if slices.Contains(requesters, mutex.ID(id+1)) {
				want = 1
			}
			// The holder entering its own CS also counts as a grant.
			if g.Count != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDuplicatedTokenIsDetected injects a duplicated PRIVILEGE — a
// violation of the reliable-network model — and checks the node-level
// guards reject it instead of silently double-granting.
func TestDuplicatedTokenIsDetected(t *testing.T) {
	w := newWorld(t, topology.Line(3), 3)
	w.request(1)
	w.drain() // node 1 now holds the token in its CS
	if !w.Nodes[1].Snapshot().InCS {
		t.Fatal("node 1 should be in its critical section")
	}
	// Replay the token to the node that already has it.
	if err := w.Nodes[1].Deliver(3, Privilege{}); err == nil {
		t.Fatal("duplicated PRIVILEGE accepted while in CS")
	}
	// And to an idle bystander that never requested.
	if err := w.Nodes[2].Deliver(3, Privilege{}); err == nil {
		t.Fatal("duplicated PRIVILEGE accepted by a non-requester")
	}
}
