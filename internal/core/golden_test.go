package core

import (
	"testing"

	"dagmutex/internal/mutex"
	"dagmutex/internal/topology"
)

// TestFigure2 replays the thesis's simple example (§3.3, Figure 2) on the
// six-node line with node 5 initially holding the token, asserting every
// intermediate variable assignment the text calls out.
func TestFigure2(t *testing.T) {
	tree, holder := topology.Figure2()
	w := newWorld(t, tree, holder)

	// Figure 2a: node 5 holds the token; NEXT points along the line
	// toward it. Node 5 enters its critical section immediately.
	w.expect(5, true, mutex.Nil, mutex.Nil)
	w.expect(3, false, 4, mutex.Nil)
	w.request(5)
	if got := w.Nodes[5].State(); got != StateE {
		t.Fatalf("node 5 state = %v, want E", got)
	}
	if w.Grants[5].Count != 1 {
		t.Fatal("node 5 was not granted immediately while holding")
	}

	// Figure 2b: node 3 wants its CS; it sends REQUEST to node 4 and
	// becomes a sink (NEXT_3 = 0).
	w.request(3)
	w.expect(3, false, mutex.Nil, mutex.Nil)
	if got := w.Nodes[3].State(); got != StateR {
		t.Fatalf("node 3 state = %v, want R", got)
	}

	// Figure 2c: node 4 receives the request, forwards REQUEST(4,3) to
	// node 5, and sets NEXT_4 = 3.
	f := w.deliverTo(4)
	if req := f.Message().(Request); req.From != 3 || req.Origin != 3 {
		t.Fatalf("node 4 received %+v, want REQUEST(3,3)", req)
	}
	w.expect(4, false, 3, mutex.Nil)
	if len(w.Pending) != 1 || w.Pending[0].To != 5 {
		t.Fatalf("expected forwarded request to node 5, pending=%v", w.Pending)
	}
	if req := w.Pending[0].Message().(Request); req.From != 4 || req.Origin != 3 {
		t.Fatalf("forwarded message %+v, want REQUEST(4,3)", req)
	}

	// Figure 2d: node 5 receives the request, sets FOLLOW_5 = 3 and
	// NEXT_5 = 4. On leaving its CS it sends PRIVILEGE to node 3.
	w.deliverTo(5)
	w.expect(5, false, 4, 3)
	w.release(5)
	w.expect(5, false, 4, mutex.Nil)
	if len(w.Pending) != 1 || w.Pending[0].To != 3 {
		t.Fatalf("expected PRIVILEGE to node 3, pending=%v", w.Pending)
	}
	if _, ok := w.Pending[0].Message().(Privilege); !ok {
		t.Fatalf("message to node 3 is %T, want Privilege", w.Pending[0].Message())
	}

	// Figure 2e: node 3 receives the PRIVILEGE and enters its CS.
	w.deliverTo(3)
	if got := w.Nodes[3].State(); got != StateE {
		t.Fatalf("node 3 state = %v, want E", got)
	}
	if w.Grants[3].Count != 1 {
		t.Fatal("node 3 was not granted")
	}
}

// TestFigure6 replays the thesis's complete example (§4.2, Figure 6)
// step by step, checking the full HOLDING/NEXT/FOLLOW tables 6a-6k.
func TestFigure6(t *testing.T) {
	tree, holder := topology.Figure6()
	w := newWorld(t, tree, holder)

	nilID := mutex.Nil
	f := false
	tr := true

	// Step 1 / Figure 6a: node 3 holds the token; everything idle.
	w.expectRow(
		[]bool{f, f, tr, f, f, f},
		[]mutex.ID{2, 3, nilID, 3, 2, 4},
		[]mutex.ID{nilID, nilID, nilID, nilID, nilID, nilID},
	)

	// Step 2: node 3 enters its critical section (HOLDING_3 = false).
	w.request(3)

	// Step 3 / Figure 6b: node 2 requests; REQUEST(2,2) to node 3,
	// NEXT_2 = 0.
	w.request(2)
	w.expectRow(
		[]bool{f, f, f, f, f, f},
		[]mutex.ID{2, nilID, nilID, 3, 2, 4},
		[]mutex.ID{nilID, nilID, nilID, nilID, nilID, nilID},
	)

	// Step 4 / Figure 6c: node 3 (a sink, in its CS) saves the request:
	// FOLLOW_3 = 2, NEXT_3 = 2.
	w.deliverTo(3)
	w.expectRow(
		[]bool{f, f, f, f, f, f},
		[]mutex.ID{2, nilID, 2, 3, 2, 4},
		[]mutex.ID{nilID, nilID, 2, nilID, nilID, nilID},
	)

	// Steps 5-6 / Figure 6d: nodes 1 and 5 both request; each sends to
	// node 2 and becomes a sink.
	w.request(1)
	w.request(5)
	w.expectRow(
		[]bool{f, f, f, f, f, f},
		[]mutex.ID{nilID, nilID, 2, 3, nilID, 4},
		[]mutex.ID{nilID, nilID, 2, nilID, nilID, nilID},
	)

	// Step 7 / Figure 6e: node 2 (a sink) processes node 1's request:
	// FOLLOW_2 = 1, NEXT_2 = 1.
	w.deliverTo(2)
	w.expectRow(
		[]bool{f, f, f, f, f, f},
		[]mutex.ID{nilID, 1, 2, 3, nilID, 4},
		[]mutex.ID{nilID, 1, 2, nilID, nilID, nilID},
	)

	// Step 8 / Figure 6f: node 2 (now a non-sink) processes node 5's
	// request: forwards REQUEST(2,5) to node 1 and sets NEXT_2 = 5.
	w.deliverTo(2)
	w.expectRow(
		[]bool{f, f, f, f, f, f},
		[]mutex.ID{nilID, 5, 2, 3, nilID, 4},
		[]mutex.ID{nilID, 1, 2, nilID, nilID, nilID},
	)

	// Step 9 / Figure 6g: node 1 (a sink) saves it: FOLLOW_1 = 5,
	// NEXT_1 = 2. The implicit global queue is now 2, 1, 5.
	w.deliverTo(1)
	w.expectRow(
		[]bool{f, f, f, f, f, f},
		[]mutex.ID{2, 5, 2, 3, nilID, 4},
		[]mutex.ID{5, 1, 2, nilID, nilID, nilID},
	)
	queue, err := ImplicitQueue(w.Snapshots())
	if err != nil {
		t.Fatalf("ImplicitQueue: %v", err)
	}
	wantQ := []mutex.ID{2, 1, 5}
	if len(queue) != len(wantQ) {
		t.Fatalf("implicit queue = %v, want %v", queue, wantQ)
	}
	for i := range wantQ {
		if queue[i] != wantQ[i] {
			t.Fatalf("implicit queue = %v, want %v", queue, wantQ)
		}
	}

	// Step 10 / Figure 6h: node 3 leaves its CS, sends PRIVILEGE to node
	// 2, clears FOLLOW_3.
	w.release(3)
	w.expectRow(
		[]bool{f, f, f, f, f, f},
		[]mutex.ID{2, 5, 2, 3, nilID, 4},
		[]mutex.ID{5, 1, nilID, nilID, nilID, nilID},
	)

	// Step 11 / Figure 6i: node 2 enters and leaves its CS, passing the
	// token to node 1.
	w.deliverTo(2)
	if w.Grants[2].Count != 1 {
		t.Fatal("node 2 not granted")
	}
	w.release(2)
	w.expectRow(
		[]bool{f, f, f, f, f, f},
		[]mutex.ID{2, 5, 2, 3, nilID, 4},
		[]mutex.ID{5, nilID, nilID, nilID, nilID, nilID},
	)

	// Step 12 / Figure 6j: node 1 enters and leaves, passing to node 5.
	w.deliverTo(1)
	if w.Grants[1].Count != 1 {
		t.Fatal("node 1 not granted")
	}
	w.release(1)
	w.expectRow(
		[]bool{f, f, f, f, f, f},
		[]mutex.ID{2, 5, 2, 3, nilID, 4},
		[]mutex.ID{nilID, nilID, nilID, nilID, nilID, nilID},
	)

	// Step 13 / Figure 6k: node 5 enters and leaves its CS and keeps the
	// token: HOLDING_5 = true.
	w.deliverTo(5)
	if w.Grants[5].Count != 1 {
		t.Fatal("node 5 not granted")
	}
	w.release(5)
	w.expectRow(
		[]bool{f, f, f, f, tr, f},
		[]mutex.ID{2, 5, 2, 3, nilID, 4},
		[]mutex.ID{nilID, nilID, nilID, nilID, nilID, nilID},
	)
	if len(w.Pending) != 0 {
		t.Fatalf("messages still in flight at quiescence: %v", w.Pending)
	}

	// Total message count for the episode: 4 REQUESTs (2->3, 1->2, 5->2,
	// forwarded 2->1) + 3 PRIVILEGEs = 7; an average of 7/4 per entry for
	// the 4 critical-section entries, below the star-topology bound of 3.
}
