package core

import (
	"errors"
	"testing"

	"dagmutex/internal/mutex"
	"dagmutex/internal/topology"
)

func TestNewValidatesConfig(t *testing.T) {
	env := &recEnv{}
	cases := []struct {
		name string
		id   mutex.ID
		cfg  mutex.Config
	}{
		{"empty ids", 1, mutex.Config{}},
		{"id missing", 7, mutex.Config{IDs: []mutex.ID{1, 2}, Holder: 1}},
		{"no parent", 2, mutex.Config{IDs: []mutex.ID{1, 2}, Holder: 1}},
		{"self parent", 2, mutex.Config{IDs: []mutex.ID{1, 2}, Holder: 1,
			Parent: map[mutex.ID]mutex.ID{2: 2}}},
		{"unsorted ids", 1, mutex.Config{IDs: []mutex.ID{2, 1}, Holder: 1}},
		// A binary search alone finds 3 in this list: only the full scan an
		// unvalidated Config gets rejects it.
		{"unsorted ids, id found by bisection", 3, mutex.Config{IDs: []mutex.ID{1, 3, 2}, Holder: 3}},
	}
	for _, c := range cases {
		if _, err := New(c.id, env, c.cfg); err == nil {
			t.Errorf("%s: New accepted bad config", c.name)
		} else if !errors.Is(err, mutex.ErrBadConfig) {
			t.Errorf("%s: error %v does not wrap ErrBadConfig", c.name, err)
		}
	}
}

func TestHolderEntersImmediatelyWithoutMessages(t *testing.T) {
	tree := topology.Star(5)
	w := newWorld(t, tree, 1)
	w.request(1)
	if w.envs[1].grant != 1 {
		t.Fatal("holder not granted")
	}
	if len(w.pending) != 0 {
		t.Fatalf("holder's entry sent %d messages, want 0", len(w.pending))
	}
	w.release(1)
	w.expect(1, true, mutex.Nil, mutex.Nil)
}

func TestRequestWhileOutstandingFails(t *testing.T) {
	w := newWorld(t, topology.Line(3), 3)
	w.request(1)
	if err := w.nodes[1].Request(); !errors.Is(err, mutex.ErrOutstanding) {
		t.Fatalf("second Request error = %v, want ErrOutstanding", err)
	}
	// Also while in the critical section.
	w2 := newWorld(t, topology.Line(3), 1)
	w2.request(1)
	if err := w2.nodes[1].Request(); !errors.Is(err, mutex.ErrOutstanding) {
		t.Fatalf("Request in CS error = %v, want ErrOutstanding", err)
	}
}

func TestReleaseOutsideCSFails(t *testing.T) {
	w := newWorld(t, topology.Line(3), 1)
	if err := w.nodes[2].Release(); !errors.Is(err, mutex.ErrNotInCS) {
		t.Fatalf("Release error = %v, want ErrNotInCS", err)
	}
	// A node that merely holds the token idle is not in its CS either.
	if err := w.nodes[1].Release(); !errors.Is(err, mutex.ErrNotInCS) {
		t.Fatalf("idle holder Release error = %v, want ErrNotInCS", err)
	}
}

func TestUnexpectedMessagesRejected(t *testing.T) {
	w := newWorld(t, topology.Line(3), 1)
	// PRIVILEGE at a node that never requested.
	if err := w.nodes[2].Deliver(1, Privilege{}); !errors.Is(err, mutex.ErrUnexpectedMessage) {
		t.Fatalf("stray PRIVILEGE error = %v, want ErrUnexpectedMessage", err)
	}
	// REQUEST whose From field disagrees with the transport sender.
	if err := w.nodes[2].Deliver(3, Request{From: 1, Origin: 1}); !errors.Is(err, mutex.ErrUnexpectedMessage) {
		t.Fatalf("forged REQUEST error = %v, want ErrUnexpectedMessage", err)
	}
	// An unknown message type.
	if err := w.nodes[2].Deliver(1, bogusMsg{}); !errors.Is(err, mutex.ErrUnexpectedMessage) {
		t.Fatalf("bogus message error = %v, want ErrUnexpectedMessage", err)
	}
}

type bogusMsg struct{}

func (bogusMsg) Kind() string { return "BOGUS" }
func (bogusMsg) Size() int    { return 0 }

func TestIdleHolderGrantsRemoteRequestImmediately(t *testing.T) {
	// Transition 8: a sink in state H that receives a request passes the
	// token at once and re-points NEXT at the sender.
	w := newWorld(t, topology.Line(3), 1) // NEXT: 2->1, 3->2
	w.request(3)                          // REQUEST(3,3) to 2
	w.deliverTo(2)                        // forwards REQUEST(2,3) to 1
	w.deliverTo(1)                        // node 1 is H: grant immediately
	w.expect(1, false, 2, mutex.Nil)
	if len(w.pending) != 1 || w.pending[0].to != 3 {
		t.Fatalf("pending = %v, want one PRIVILEGE to node 3", w.pending)
	}
	w.deliverTo(3)
	if w.envs[3].grant != 1 {
		t.Fatal("node 3 not granted")
	}
	// Exactly 3 messages on the line at distance 2: D REQUESTs + 1 PRIVILEGE.
}

func TestMessageSizesMatchThesisSection64(t *testing.T) {
	// §6.4: a REQUEST carries two integers. The thesis's PRIVILEGE carries
	// nothing; ours carries the 8-byte fencing generation, and both carry
	// the 4-byte recovery epoch the failure extension stamps on them and
	// the 2-byte hop counter the adaptive-topology extension adds.
	if got := (Request{}).Size(); got != 2*mutex.IntSize+EpochSize+HopSize {
		t.Fatalf("REQUEST size = %d, want %d", got, 2*mutex.IntSize+EpochSize+HopSize)
	}
	if got := (Privilege{}).Size(); got != GenSize+EpochSize+1+HopSize {
		t.Fatalf("PRIVILEGE size = %d, want %d (fencing generation + epoch + pipelined-request flag + hops)", got, GenSize+EpochSize+1+HopSize)
	}
}

func TestStorageIsConstantScalarsAlways(t *testing.T) {
	// §6.4: each node maintains three simple variables, regardless of
	// cluster size or load; the fencing and epoch extensions add two
	// more, still constant. The failure extension's membership view is
	// the first O(N) cost — one liveness entry per member — and the
	// transient recovery queues are empty outside a recovery window.
	const n = 50
	w := newWorld(t, topology.Star(n), 1)
	w.request(7)
	w.drain()
	for id, node := range w.nodes {
		s := node.Storage()
		if s.Scalars != 5 || s.ArrayEntries != n || s.QueueEntries != 0 {
			t.Fatalf("node %d storage = %+v, want 5 scalars + %d membership entries", id, s, n)
		}
	}
}

func TestImplicitQueueErrors(t *testing.T) {
	// No holder.
	if _, err := ImplicitQueue([]Snapshot{{ID: 1}, {ID: 2}}); err == nil {
		t.Error("ImplicitQueue accepted a holderless snapshot set")
	}
	// Two holders.
	if _, err := ImplicitQueue([]Snapshot{{ID: 1, Holding: true}, {ID: 2, InCS: true}}); err == nil {
		t.Error("ImplicitQueue accepted two holders")
	}
	// Cyclic FOLLOW chain.
	_, err := ImplicitQueue([]Snapshot{
		{ID: 1, InCS: true, Follow: 2},
		{ID: 2, Follow: 1},
	})
	if err == nil {
		t.Error("ImplicitQueue accepted a cyclic chain")
	}
	// Chain pointing outside the snapshot set.
	_, err = ImplicitQueue([]Snapshot{{ID: 1, Holding: true, Follow: 9}})
	if err == nil {
		t.Error("ImplicitQueue accepted a dangling chain")
	}
}

func TestStateClassification(t *testing.T) {
	cases := []struct {
		snap Snapshot
		want State
	}{
		{Snapshot{}, StateN},
		{Snapshot{Requesting: true}, StateR},
		{Snapshot{Requesting: true, Follow: 4}, StateRF},
		{Snapshot{InCS: true}, StateE},
		{Snapshot{InCS: true, Follow: 4}, StateEF},
		{Snapshot{Holding: true}, StateH},
	}
	for _, c := range cases {
		if got := c.snap.State(); got != c.want {
			t.Errorf("State(%+v) = %v, want %v", c.snap, got, c.want)
		}
	}
	// Sink states are exactly R, E, H (Figure 4's shaded states).
	for _, s := range []State{StateR, StateE, StateH} {
		if !s.Sink() {
			t.Errorf("%v should be a sink state", s)
		}
	}
	for _, s := range []State{StateN, StateRF, StateEF} {
		if s.Sink() {
			t.Errorf("%v should not be a sink state", s)
		}
	}
}

// TestTransitionObserverSeesLegalHistory drives a line through all eight
// Figure 4 transitions and a suspicion, with one observer per row: the
// automaton's subscription must see every transition and each history
// must be legal; a recovery-only subscription must see the recovery event
// and nothing else.
func TestTransitionObserverSeesLegalHistory(t *testing.T) {
	for _, row := range []struct {
		name string
		want EventSet
	}{
		{"transitions", TransitionEvents},
		{"recovery only", RecoveryEvents},
	} {
		t.Run(row.name, func(t *testing.T) {
			tree := topology.Line(4)
			cfg := mutex.Config{IDs: tree.IDs(), Holder: 4, Parent: tree.ParentsToward(4)}
			w := &world{t: t, nodes: make(map[mutex.ID]*Node), envs: make(map[mutex.ID]*recEnv)}
			var seen []Event
			for _, id := range tree.IDs() {
				env := &recEnv{world: w, id: id}
				n, err := New(id, env, cfg, WithObserver(row.want, func(e Event) { seen = append(seen, e) }))
				if err != nil {
					t.Fatal(err)
				}
				w.nodes[id] = n
				w.envs[id] = env
			}

			w.request(1)
			w.drain()    // 1, 3, 3, 8 along the line; 4 at node 1
			w.release(1) // 5
			w.request(4)
			w.drain()    // 1 at node 4 ... 8 at node 1, 4 at node 4
			w.release(4) // 5
			w.request(4) // 6
			w.request(1)
			w.drain()    // node 4 is an executing sink: 2
			w.release(4) // 7
			w.drain()
			w.release(1)
			if err := w.nodes[1].PeerDown(2); err != nil { // node 4 coordinates: node 1 only notes it
				t.Fatal(err)
			}

			// Validate each node's history against Figure 4, starting from
			// its initial state (H for the holder, N otherwise).
			state := map[mutex.ID]State{1: StateN, 2: StateN, 3: StateN, 4: StateH}
			fired := make(map[Transition]bool)
			for i, e := range seen {
				if !row.want.Has(e.Kind) {
					t.Fatalf("event %d: %v delivered to a subscriber of %b", i, e.Kind, row.want)
				}
				if e.Transition == 0 {
					continue
				}
				fired[e.Transition] = true
				next, ok := LegalTransitions[state[e.Node]][e.Transition]
				if !ok {
					t.Fatalf("node %d event %d: transition %v illegal from %v", e.Node, i, e.Transition, state[e.Node])
				}
				if next != e.State {
					t.Fatalf("node %d event %d: transition %v from %v landed in %v, want %v",
						e.Node, i, e.Transition, state[e.Node], e.State, next)
				}
				state[e.Node] = next
			}
			if row.want == RecoveryEvents {
				if len(seen) != 1 || seen[0].Kind != EventPeerDown || seen[0].Node != 1 || seen[0].Peer != 2 {
					t.Fatalf("recovery-only subscriber saw %+v, want node 1's PEER-DOWN of 2 alone", seen)
				}
				return
			}
			for tr := TransRequest; tr <= TransGrantFromHolding; tr++ {
				if !fired[tr] {
					t.Errorf("transition %v never reached the observer", tr)
				}
			}
		})
	}
}

func TestStateAndTransitionStrings(t *testing.T) {
	if StateRF.String() != "RF" || StateH.String() != "H" {
		t.Fatal("state names")
	}
	if State(99).String() == "" || Transition(99).String() == "" {
		t.Fatal("unknown values must still print")
	}
	if TransGrantFromHolding.String() != "8" || TransRequest.String() != "1" {
		t.Fatal("transition numbers must match Figure 4")
	}
}

func TestConcurrentRequestsConvergeToSingleSink(t *testing.T) {
	// §3.3's transient: while requests are in flight there may be up to
	// three sinks; after quiescence exactly one sink remains.
	tree := topology.Star(6)
	w := newWorld(t, tree, 1)
	w.request(2)
	w.request(3)
	w.request(4)
	w.drain()
	// Serve every grant as it lands until quiescence.
	for safety := 0; safety < 10; safety++ {
		served := false
		for id, env := range w.envs {
			if env.grant == 1 && w.nodes[id].Snapshot().InCS {
				w.release(id)
				w.drain()
				served = true
			}
		}
		if !served {
			break
		}
	}
	sinks := 0
	for _, s := range w.snapshots() {
		if s.Next == mutex.Nil {
			sinks++
		}
	}
	if sinks != 1 {
		t.Fatalf("found %d sinks at quiescence, want 1", sinks)
	}
	for _, id := range []mutex.ID{2, 3, 4} {
		if g := w.envs[id].grant; g != 1 {
			t.Fatalf("node %d grants = %d, want 1", id, g)
		}
	}
}
