package core

import (
	"errors"
	"testing"

	"dagmutex/internal/mutex"
	"dagmutex/internal/topology"
)

// hopRecEnv is recEnv plus the optional hop-accounting surface, so tests
// can observe the request-path length behind each grant.
type hopRecEnv struct {
	recEnv
	lastHops int
}

func (e *hopRecEnv) GrantedHops(gen uint64, hops int) {
	e.Granted(gen)
	e.lastHops = hops
}

// newAdaptiveWorld is newWorld with node options and hop-recording envs.
func newAdaptiveWorld(t *testing.T, tree *topology.Tree, holder mutex.ID, opts ...Option) (*world, map[mutex.ID]*hopRecEnv) {
	t.Helper()
	w := &world{t: t, nodes: make(map[mutex.ID]*Node), envs: make(map[mutex.ID]*recEnv)}
	henvs := make(map[mutex.ID]*hopRecEnv)
	cfg := mutex.Config{IDs: tree.IDs(), Holder: holder, Parent: tree.ParentsToward(holder)}
	for _, id := range tree.IDs() {
		he := &hopRecEnv{recEnv: recEnv{world: w, id: id}}
		n, err := New(id, he, cfg, opts...)
		if err != nil {
			t.Fatalf("New(%d): %v", id, err)
		}
		w.nodes[id] = n
		w.envs[id] = &he.recEnv
		henvs[id] = he
	}
	return w, henvs
}

// TestPathCompressionCollapsesChain pins the Naimi–Trehel reversal: a
// request from the far end of a chain leaves every node it passed
// pointing directly at the requester (the new sink), not merely back
// along the channel it arrived on. The static rule, by contrast, only
// reverses edge by edge.
func TestPathCompressionCollapsesChain(t *testing.T) {
	w, henvs := newAdaptiveWorld(t, topology.Line(5), 1, WithPathCompression())
	// NEXT before: 2->1, 3->2, 4->3, 5->4; token idle at 1.
	w.request(5)
	w.drain()
	if henvs[5].grant != 1 {
		t.Fatal("node 5 not granted")
	}
	if henvs[5].lastHops != 4 {
		t.Fatalf("grant hops = %d, want 4 (the request walked the whole chain)", henvs[5].lastHops)
	}
	// The forwarding chain has collapsed: every traversed node points at
	// the requester.
	for id := mutex.ID(1); id <= 4; id++ {
		if next := w.nodes[id].Snapshot().Next; next != 5 {
			t.Fatalf("node %d NEXT = %d after compressed grant, want 5", id, next)
		}
	}
	// A follow-up request from node 1 now takes one hop instead of four.
	w.release(5)
	w.request(1)
	w.drain()
	if henvs[1].grant != 1 {
		t.Fatal("node 1 not granted after compression")
	}
	if henvs[1].lastHops != 1 {
		t.Fatalf("post-compression grant hops = %d, want 1", henvs[1].lastHops)
	}
}

// TestStaticReversalReportsFullPathHops pins the hop accounting on the
// uncompressed protocol, including the FOLLOW-stored path: a request
// parked behind a busy holder must surface its original path length when
// the token finally moves.
func TestStaticReversalReportsFullPathHops(t *testing.T) {
	w, henvs := newAdaptiveWorld(t, topology.Line(3), 1)
	w.request(1) // holder enters directly: no request travelled
	if henvs[1].lastHops != 0 {
		t.Fatalf("direct-entry hops = %d, want 0", henvs[1].lastHops)
	}
	w.request(3) // walks 3->2->1, parked in FOLLOW at the busy holder
	w.drain()
	w.release(1) // token moves, carrying the stored path length
	w.drain()
	if henvs[3].grant != 1 {
		t.Fatal("node 3 not granted")
	}
	if henvs[3].lastHops != 2 {
		t.Fatalf("follow-path grant hops = %d, want 2", henvs[3].lastHops)
	}
}

// TestPlanReorientBiasesOrientationTowardHot pins the planned reshape's
// outcome: the idle holder plans toward a hot node, and the rebuilt DAG
// is the two-level radial — everyone's NEXT at hot, hot's NEXT at the
// sink (here the holder itself) — with the token, epoch and fencing
// generation exactly where they were.
func TestPlanReorientBiasesOrientationTowardHot(t *testing.T) {
	w, _ := newAdaptiveWorld(t, topology.Line(5), 1)
	planned, err := w.nodes[1].PlanReorient(4)
	if err != nil || !planned {
		t.Fatalf("PlanReorient = %v, %v, want true, nil", planned, err)
	}
	w.drain()
	w.expect(1, true, mutex.Nil, mutex.Nil) // holder is the sink: keeps the token
	for _, id := range []mutex.ID{2, 3, 5} {
		w.expect(id, false, 4, mutex.Nil)
	}
	w.expect(4, false, 1, mutex.Nil)
	for id := mutex.ID(1); id <= 5; id++ {
		s := w.nodes[id].Snapshot()
		if s.Epoch != 1 || s.Frozen {
			t.Fatalf("node %d epoch=%d frozen=%v after planned reorient, want epoch 1, unfrozen", id, s.Epoch, s.Frozen)
		}
	}
	if gen := w.nodes[1].Snapshot().Generation; gen != 0 {
		t.Fatalf("planned reorient advanced the fencing generation to %d, want 0 (no mint, no grant)", gen)
	}
	// The reshaped DAG still serves: a request from node 2 reaches the
	// holder via hot in two hops.
	w.request(2)
	w.drain()
	if w.envs[2].grant != 1 {
		t.Fatal("node 2 not granted after reshape")
	}
}

// TestPlanReorientRequeuesWaitersAndKeepsFences drives a planned reshape
// under load: the holder is mid-CS with two requesters queued, reshapes
// toward a cold node, and every waiter is still served afterwards with
// strictly increasing fences and no regeneration jump.
func TestPlanReorientRequeuesWaitersAndKeepsFences(t *testing.T) {
	w, _ := newAdaptiveWorld(t, topology.Line(4), 1)
	w.request(1) // gen 1, in CS
	w.request(3)
	w.drain() // 3's request parks as FOLLOW at 1
	w.request(4)
	w.drain() // 4's request parks as FOLLOW at 3
	planned, err := w.nodes[1].PlanReorient(2)
	if err != nil || !planned {
		t.Fatalf("PlanReorient mid-CS = %v, %v, want true, nil", planned, err)
	}
	w.drain()
	// Waiters 3 and 4 are re-queued as the root's FOLLOW chain; the sink
	// is the last waiter (4), hot is 2: 1->2, 3->2, 2->4, 4 sink.
	if f := w.nodes[1].Snapshot().Follow; f != 3 {
		t.Fatalf("root FOLLOW = %d after planned reorient, want 3", f)
	}
	if f := w.nodes[3].Snapshot().Follow; f != 4 {
		t.Fatalf("node 3 FOLLOW = %d after planned reorient, want 4", f)
	}
	w.expect(2, false, 4, mutex.Nil)
	// Drain the queue: fences stay strictly monotonic, no mint.
	w.release(1)
	w.drain()
	w.release(3)
	w.drain()
	if w.envs[3].lastGen != 2 || w.envs[4].lastGen != 3 {
		t.Fatalf("post-reorient fences = %d, %d, want 2, 3 (monotonic, no regeneration jump)",
			w.envs[3].lastGen, w.envs[4].lastGen)
	}
	w.release(4)
	w.expect(4, true, mutex.Nil, mutex.Nil)
}

// TestPlanReorientRefusals pins every refusal and error condition: only
// the token's possessor reshapes, never mid-recovery, never without a
// quorum, and never toward a non-member or dead target.
func TestPlanReorientRefusals(t *testing.T) {
	w, _ := newAdaptiveWorld(t, topology.Line(5), 1)
	// A non-holder is refused without error.
	if planned, err := w.nodes[3].PlanReorient(2); planned || err != nil {
		t.Fatalf("non-holder PlanReorient = %v, %v, want false, nil", planned, err)
	}
	// A non-member target is an error.
	if _, err := w.nodes[1].PlanReorient(99); !errors.Is(err, mutex.ErrBadConfig) {
		t.Fatalf("non-member target error = %v, want ErrBadConfig", err)
	}
	// Mid-reshape (frozen, collecting) a second plan is refused.
	if planned, err := w.nodes[1].PlanReorient(4); !planned || err != nil {
		t.Fatalf("first PlanReorient = %v, %v, want true, nil", planned, err)
	}
	if planned, err := w.nodes[1].PlanReorient(3); planned || err != nil {
		t.Fatalf("PlanReorient mid-reshape = %v, %v, want false, nil", planned, err)
	}
	w.drain()
	// A dead target is an error.
	if err := w.nodes[1].PeerDown(2); err != nil {
		t.Fatal(err)
	}
	w.drain()
	if _, err := w.nodes[1].PlanReorient(2); !errors.Is(err, mutex.ErrBadConfig) {
		t.Fatalf("dead target error = %v, want ErrBadConfig", err)
	}

	// Without a quorum the reshape is refused, like regeneration.
	w2, _ := newAdaptiveWorld(t, topology.Line(3), 1)
	if err := w2.nodes[1].PeerDown(2); err != nil {
		t.Fatal(err)
	}
	if err := w2.nodes[1].PeerDown(3); err != nil {
		t.Fatal(err)
	}
	if planned, err := w2.nodes[1].PlanReorient(1); planned || err != nil {
		t.Fatalf("quorumless PlanReorient = %v, %v, want false, nil", planned, err)
	}
}

// TestPlanReorientCedesToConcurrentRecovery pins the supersession rule:
// a planned round abandoned to a higher-ID coordinator (same epoch)
// must also abandon its bias, so the crash recovery that superseded it
// rebuilds the plain star.
func TestPlanReorientCedesToConcurrentRecovery(t *testing.T) {
	w, _ := newAdaptiveWorld(t, topology.Line(5), 1)
	if planned, err := w.nodes[1].PlanReorient(3); !planned || err != nil {
		t.Fatalf("PlanReorient = %v, %v, want true, nil", planned, err)
	}
	if w.nodes[1].cold.planTarget != 3 {
		t.Fatalf("planTarget = %d mid-round, want 3", w.nodes[1].cold.planTarget)
	}
	// A probe from a higher-ID coordinator at the same epoch supersedes
	// the planned round; the bias must not leak into the winner's rebuild.
	if err := w.nodes[1].Deliver(5, Probe{Epoch: 1, Dead: mutex.Nil}); err != nil {
		t.Fatal(err)
	}
	if w.nodes[1].cold.planTarget != mutex.Nil {
		t.Fatalf("planTarget = %d after ceding to a concurrent recovery, want Nil", w.nodes[1].cold.planTarget)
	}
	if w.nodes[1].cold.collecting {
		t.Fatal("node 1 still collecting after ceding")
	}
}
