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

func TestTransitionObserverSeesLegalHistory(t *testing.T) {
	tree := topology.Line(4)
	cfg := mutex.Config{IDs: tree.IDs(), Holder: 4, Parent: tree.ParentsToward(4)}
	w := &world{t: t, nodes: make(map[mutex.ID]*Node), envs: make(map[mutex.ID]*recEnv)}
	type step struct {
		tr Transition
		to State
	}
	hist := make(map[mutex.ID][]step)
	for _, id := range tree.IDs() {
		id := id
		env := &recEnv{world: w, id: id}
		n, err := New(id, env, cfg, WithTransitionObserver(func(tr Transition, to State) {
			hist[id] = append(hist[id], step{tr, to})
		}))
		if err != nil {
			t.Fatal(err)
		}
		w.nodes[id] = n
		w.envs[id] = env
	}

	w.request(1)
	w.drain() // token moves 4 -> 1
	w.release(1)
	w.request(4)
	w.drain()
	w.release(4)

	// Validate each node's history against Figure 4, starting from its
	// initial state (H for the holder, N otherwise).
	for id, steps := range hist {
		state := StateN
		if id == 4 {
			state = StateH
		}
		for i, st := range steps {
			next, ok := LegalTransitions[state][st.tr]
			if !ok {
				t.Fatalf("node %d step %d: transition %v illegal from %v", id, i, st.tr, state)
			}
			if next != st.to {
				t.Fatalf("node %d step %d: transition %v from %v landed in %v, want %v",
					id, i, st.tr, state, st.to, next)
			}
			state = next
		}
	}
	if len(hist[1]) == 0 || len(hist[4]) == 0 {
		t.Fatal("expected transition history at nodes 1 and 4")
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
