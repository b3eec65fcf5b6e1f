package core

import (
	"errors"
	"testing"

	"dagmutex/internal/mutex"
	"dagmutex/internal/topology"
)

// TestReleaseRequestFusesOntoPrivilege: when the holder's NEXT and
// FOLLOW both point at the successor, the fused release sends exactly
// one message — a PRIVILEGE with the Requesting flag — and the receiver
// treats it as the token plus a verbatim REQUEST(releaser, releaser),
// wiring the direct return edge.
func TestReleaseRequestFusesOntoPrivilege(t *testing.T) {
	w := newWorld(t, topology.Line(3), 1)
	w.request(1) // holder enters immediately
	w.request(2) // REQUEST(2,2) travels to the in-CS holder
	w.drain()
	w.expect(1, false, 2, 2) // sink stored FOLLOW=2 and NEXT=2

	if err := w.Nodes[1].ReleaseRequest(); err != nil {
		t.Fatalf("ReleaseRequest: %v", err)
	}
	if len(w.Pending) != 1 {
		t.Fatalf("fused release sent %d messages, want 1", len(w.Pending))
	}
	p, ok := w.Pending[0].Message().(Privilege)
	if !ok || !p.Requesting {
		t.Fatalf("fused release sent %#v, want a PRIVILEGE with Requesting set", w.Pending[0].Message())
	}
	if s := w.Nodes[1].Snapshot(); !s.Requesting || s.InCS {
		t.Fatalf("releaser state after fused release = %+v, want requesting and out of CS", s)
	}

	w.drain()
	if w.Grants[2].Count != 1 {
		t.Fatalf("successor grants = %d, want 1", w.Grants[2].Count)
	}
	// The piggybacked request re-queued the releaser: the successor's
	// FOLLOW points back at it, exactly as a separate verbatim
	// REQUEST(1,1) on the same channel would have left it.
	w.expect(2, false, 1, 1)
	w.release(2)
	w.drain()
	if w.Grants[1].Count != 2 {
		t.Fatalf("releaser grants = %d, want its pipelined re-entry granted", w.Grants[1].Count)
	}
}

// TestReleaseRequestFallsBackWhenNextDiverges: once a later request has
// been forwarded, NEXT no longer matches FOLLOW and the re-request would
// travel a different channel than the token — fusing is not equivalent
// there, so the unfused Release+Request pair must run instead.
func TestReleaseRequestFallsBackWhenNextDiverges(t *testing.T) {
	w := newWorld(t, topology.Star(3), 1)
	w.request(1)
	w.request(2)
	w.drain() // sink-holder: FOLLOW=2, NEXT=2
	w.request(3)
	w.drain() // forwarded: NEXT=3, FOLLOW still 2
	w.expect(1, false, 3, 2)

	if err := w.Nodes[1].ReleaseRequest(); err != nil {
		t.Fatalf("ReleaseRequest: %v", err)
	}
	var privs, reqs int
	for _, f := range w.Pending {
		switch m := f.Message().(type) {
		case Privilege:
			privs++
			if m.Requesting {
				t.Fatal("unfused fallback set Requesting on the PRIVILEGE")
			}
		case Request:
			reqs++
		}
	}
	if privs != 1 || reqs != 1 {
		t.Fatalf("fallback sent %d PRIVILEGE + %d REQUEST, want 1 + 1", privs, reqs)
	}
	w.drain()
	// The whole chain still serves in order: 2 (the follow edge), then 3,
	// then the releaser's own re-request.
	if w.Grants[2].Count != 1 {
		t.Fatal("node 2 not granted after the fallback release")
	}
	w.release(2)
	w.drain()
	if w.Grants[3].Count != 1 {
		t.Fatal("node 3 not granted after node 2 released")
	}
	w.release(3)
	w.drain()
	if w.Grants[1].Count != 2 {
		t.Fatal("releaser's re-request never granted")
	}
}

// TestRegrantIsInvisibleToPeers: a regrant issues a fresh grant and
// generation while sending nothing and changing no protocol state — as
// far as the DAG is concerned the node never left its critical section.
func TestRegrantIsInvisibleToPeers(t *testing.T) {
	w := newWorld(t, topology.Line(3), 1)
	w.request(1)
	w.request(2) // a remote requester is queued, and still gets bypassed
	w.drain()
	before := w.Nodes[1].Snapshot()
	gen := w.Grants[1].Gen

	ok, err := w.Nodes[1].Regrant()
	if err != nil || !ok {
		t.Fatalf("Regrant = (%v, %v), want (true, nil)", ok, err)
	}
	if len(w.Pending) != 0 {
		t.Fatalf("Regrant sent %d messages, want 0", len(w.Pending))
	}
	if w.Grants[1].Count != 2 {
		t.Fatalf("grants = %d, want 2 (original + regrant)", w.Grants[1].Count)
	}
	if w.Grants[1].Gen != gen+1 {
		t.Fatalf("regrant generation = %d, want %d", w.Grants[1].Gen, gen+1)
	}
	after := w.Nodes[1].Snapshot()
	before.Generation, after.Generation = 0, 0 // only the fence may move
	if before != after {
		t.Fatalf("Regrant changed protocol state: %+v -> %+v", before, after)
	}

	// The ordinary release still serves the queued remote requester.
	w.release(1)
	w.drain()
	if w.Grants[2].Count != 1 {
		t.Fatal("queued requester not granted after the regranted hold released")
	}
}

// TestRegrantOutsideCSFails: regranting requires an occupied critical
// section; an idle holder or a bystander gets ErrNotInCS.
func TestRegrantOutsideCSFails(t *testing.T) {
	w := newWorld(t, topology.Line(3), 1)
	if ok, err := w.Nodes[1].Regrant(); ok || !errors.Is(err, mutex.ErrNotInCS) {
		t.Fatalf("idle holder Regrant = (%v, %v), want ErrNotInCS", ok, err)
	}
	if ok, err := w.Nodes[2].Regrant(); ok || !errors.Is(err, mutex.ErrNotInCS) {
		t.Fatalf("bystander Regrant = (%v, %v), want ErrNotInCS", ok, err)
	}
}

// TestRegrantUnavailableMidRecovery: a frozen node must not advance the
// generation counter (the token may be regenerated elsewhere), so
// Regrant reports false and the caller takes the ordinary release path.
func TestRegrantUnavailableMidRecovery(t *testing.T) {
	// Node 3 is the highest-ID survivor, so reporting node 1 dead makes
	// it the recovery coordinator and freezes it mid-CS.
	w := newWorld(t, topology.Line(3), 3)
	w.request(3)
	if err := w.Nodes[3].PeerDown(1); err != nil {
		t.Fatalf("PeerDown: %v", err)
	}
	if !w.Nodes[3].Snapshot().Frozen {
		t.Fatal("test setup: node 3 did not freeze on PeerDown")
	}
	ok, err := w.Nodes[3].Regrant()
	if err != nil || ok {
		t.Fatalf("frozen Regrant = (%v, %v), want (false, nil)", ok, err)
	}
}
