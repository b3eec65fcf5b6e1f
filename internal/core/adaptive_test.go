package core

import (
	"errors"
	"testing"

	"dagmutex/internal/mutex"
	"dagmutex/internal/topology"
)

// TestPathCompressionCollapsesChain pins the Naimi–Trehel reversal: a
// request from the far end of a chain leaves every node it passed
// pointing directly at the requester (the new sink), not merely back
// along the channel it arrived on. The static rule, by contrast, only
// reverses edge by edge.
func TestPathCompressionCollapsesChain(t *testing.T) {
	w := newWorld(t, topology.Line(5), 1, WithPathCompression())
	// NEXT before: 2->1, 3->2, 4->3, 5->4; token idle at 1.
	w.request(5)
	w.drain()
	if w.Grants[5].Count != 1 {
		t.Fatal("node 5 not granted")
	}
	if w.Grants[5].Hops != 4 {
		t.Fatalf("grant hops = %d, want 4 (the request walked the whole chain)", w.Grants[5].Hops)
	}
	// The forwarding chain has collapsed: every traversed node points at
	// the requester.
	for id := mutex.ID(1); id <= 4; id++ {
		if next := w.Nodes[id].Snapshot().Next; next != 5 {
			t.Fatalf("node %d NEXT = %d after compressed grant, want 5", id, next)
		}
	}
	// A follow-up request from node 1 now takes one hop instead of four.
	w.release(5)
	w.request(1)
	w.drain()
	if w.Grants[1].Count != 1 {
		t.Fatal("node 1 not granted after compression")
	}
	if w.Grants[1].Hops != 1 {
		t.Fatalf("post-compression grant hops = %d, want 1", w.Grants[1].Hops)
	}
}

// TestStaticReversalReportsFullPathHops pins the hop accounting on the
// uncompressed protocol, including the FOLLOW-stored path: a request
// parked behind a busy holder must surface its original path length when
// the token finally moves.
func TestStaticReversalReportsFullPathHops(t *testing.T) {
	w := newWorld(t, topology.Line(3), 1)
	w.request(1) // holder enters directly: no request travelled
	if w.Grants[1].Hops != 0 {
		t.Fatalf("direct-entry hops = %d, want 0", w.Grants[1].Hops)
	}
	w.request(3) // walks 3->2->1, parked in FOLLOW at the busy holder
	w.drain()
	w.release(1) // token moves, carrying the stored path length
	w.drain()
	if w.Grants[3].Count != 1 {
		t.Fatal("node 3 not granted")
	}
	if w.Grants[3].Hops != 2 {
		t.Fatalf("follow-path grant hops = %d, want 2", w.Grants[3].Hops)
	}
}

// TestPlanReorientBiasesOrientationTowardHot pins the planned reshape's
// outcome: the idle holder plans toward a hot node, and the rebuilt DAG
// is the two-level radial — everyone's NEXT at hot, hot's NEXT at the
// sink (here the holder itself) — with the token, epoch and fencing
// generation exactly where they were.
func TestPlanReorientBiasesOrientationTowardHot(t *testing.T) {
	w := newWorld(t, topology.Line(5), 1)
	planned, err := w.Nodes[1].PlanReorient(4)
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
		s := w.Nodes[id].Snapshot()
		if s.Epoch != 1 || s.Frozen {
			t.Fatalf("node %d epoch=%d frozen=%v after planned reorient, want epoch 1, unfrozen", id, s.Epoch, s.Frozen)
		}
	}
	if gen := w.Nodes[1].Snapshot().Generation; gen != 0 {
		t.Fatalf("planned reorient advanced the fencing generation to %d, want 0 (no mint, no grant)", gen)
	}
	// The reshaped DAG still serves: a request from node 2 reaches the
	// holder via hot in two hops.
	w.request(2)
	w.drain()
	if w.Grants[2].Count != 1 {
		t.Fatal("node 2 not granted after reshape")
	}
}

// TestPlanReorientRequeuesWaitersAndKeepsFences drives a planned reshape
// under load: the holder is mid-CS with two requesters queued, reshapes
// toward a cold node, and every waiter is still served afterwards with
// strictly increasing fences and no regeneration jump.
func TestPlanReorientRequeuesWaitersAndKeepsFences(t *testing.T) {
	w := newWorld(t, topology.Line(4), 1)
	w.request(1) // gen 1, in CS
	w.request(3)
	w.drain() // 3's request parks as FOLLOW at 1
	w.request(4)
	w.drain() // 4's request parks as FOLLOW at 3
	planned, err := w.Nodes[1].PlanReorient(2)
	if err != nil || !planned {
		t.Fatalf("PlanReorient mid-CS = %v, %v, want true, nil", planned, err)
	}
	w.drain()
	// Waiters 3 and 4 are re-queued as the root's FOLLOW chain; the sink
	// is the last waiter (4), hot is 2: 1->2, 3->2, 2->4, 4 sink.
	if f := w.Nodes[1].Snapshot().Follow; f != 3 {
		t.Fatalf("root FOLLOW = %d after planned reorient, want 3", f)
	}
	if f := w.Nodes[3].Snapshot().Follow; f != 4 {
		t.Fatalf("node 3 FOLLOW = %d after planned reorient, want 4", f)
	}
	w.expect(2, false, 4, mutex.Nil)
	// Drain the queue: fences stay strictly monotonic, no mint.
	w.release(1)
	w.drain()
	w.release(3)
	w.drain()
	if w.Grants[3].Gen != 2 || w.Grants[4].Gen != 3 {
		t.Fatalf("post-reorient fences = %d, %d, want 2, 3 (monotonic, no regeneration jump)",
			w.Grants[3].Gen, w.Grants[4].Gen)
	}
	w.release(4)
	w.expect(4, true, mutex.Nil, mutex.Nil)
}

// TestPlanReorientRefusals pins every refusal and error condition: only
// the token's possessor reshapes, never mid-recovery, never without a
// quorum, and never toward a non-member or dead target.
func TestPlanReorientRefusals(t *testing.T) {
	w := newWorld(t, topology.Line(5), 1)
	// A non-holder is refused without error.
	if planned, err := w.Nodes[3].PlanReorient(2); planned || err != nil {
		t.Fatalf("non-holder PlanReorient = %v, %v, want false, nil", planned, err)
	}
	// A non-member target is an error.
	if _, err := w.Nodes[1].PlanReorient(99); !errors.Is(err, mutex.ErrBadConfig) {
		t.Fatalf("non-member target error = %v, want ErrBadConfig", err)
	}
	// Mid-reshape (frozen, collecting) a second plan is refused.
	if planned, err := w.Nodes[1].PlanReorient(4); !planned || err != nil {
		t.Fatalf("first PlanReorient = %v, %v, want true, nil", planned, err)
	}
	if planned, err := w.Nodes[1].PlanReorient(3); planned || err != nil {
		t.Fatalf("PlanReorient mid-reshape = %v, %v, want false, nil", planned, err)
	}
	w.drain()
	// A dead target is an error.
	if err := w.Nodes[1].PeerDown(2); err != nil {
		t.Fatal(err)
	}
	w.drain()
	if _, err := w.Nodes[1].PlanReorient(2); !errors.Is(err, mutex.ErrBadConfig) {
		t.Fatalf("dead target error = %v, want ErrBadConfig", err)
	}

	// Without a quorum the reshape is refused, like regeneration.
	w2 := newWorld(t, topology.Line(3), 1)
	if err := w2.Nodes[1].PeerDown(2); err != nil {
		t.Fatal(err)
	}
	if err := w2.Nodes[1].PeerDown(3); err != nil {
		t.Fatal(err)
	}
	if planned, err := w2.Nodes[1].PlanReorient(1); planned || err != nil {
		t.Fatalf("quorumless PlanReorient = %v, %v, want false, nil", planned, err)
	}
}

// TestPlanReorientCedesToConcurrentRecovery pins the supersession rule:
// a planned round abandoned to a higher-ID coordinator (same epoch)
// must also abandon its bias, so the crash recovery that superseded it
// rebuilds the plain star.
func TestPlanReorientCedesToConcurrentRecovery(t *testing.T) {
	w := newWorld(t, topology.Line(5), 1)
	if planned, err := w.Nodes[1].PlanReorient(3); !planned || err != nil {
		t.Fatalf("PlanReorient = %v, %v, want true, nil", planned, err)
	}
	if w.Nodes[1].cold.planTarget != 3 {
		t.Fatalf("planTarget = %d mid-round, want 3", w.Nodes[1].cold.planTarget)
	}
	// A probe from a higher-ID coordinator at the same epoch supersedes
	// the planned round; the bias must not leak into the winner's rebuild.
	if err := w.Nodes[1].Deliver(5, Probe{Epoch: 1, Dead: mutex.Nil}); err != nil {
		t.Fatal(err)
	}
	if w.Nodes[1].cold.planTarget != mutex.Nil {
		t.Fatalf("planTarget = %d after ceding to a concurrent recovery, want Nil", w.Nodes[1].cold.planTarget)
	}
	if w.Nodes[1].cold.collecting {
		t.Fatal("node 1 still collecting after ceding")
	}
}
