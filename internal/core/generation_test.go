package core

import (
	"errors"
	"testing"

	"dagmutex/internal/mutex"
	"dagmutex/internal/topology"
)

// TestFencingGenerationMonotonicAcrossTokenTravel walks the token around
// a star and checks that every grant — whether from an idle local token
// or a received PRIVILEGE — carries the next generation, in strict grant
// order across nodes.
func TestFencingGenerationMonotonicAcrossTokenTravel(t *testing.T) {
	w := newWorld(t, topology.Star(3), 1)

	// Grant 1: the holder enters from HOLDING without any messages.
	w.request(1)
	if got := w.Grants[1].Gen; got != 1 {
		t.Fatalf("holder's first grant generation = %d, want 1", got)
	}
	w.release(1)

	// Grant 2: the token travels 1 -> 2.
	w.request(2)
	w.drain()
	if got := w.Grants[2].Gen; got != 2 {
		t.Fatalf("node 2 grant generation = %d, want 2", got)
	}
	w.release(2)

	// Grant 3: the token travels 2 -> 1 -> 3 across the star's center.
	w.request(3)
	w.drain()
	if got := w.Grants[3].Gen; got != 3 {
		t.Fatalf("node 3 grant generation = %d, want 3", got)
	}
	w.release(3)

	// Grant 4: back to node 1, which must continue the count, not restart
	// from its stale local value.
	w.request(1)
	w.drain()
	if got := w.Grants[1].Gen; got != 4 {
		t.Fatalf("node 1 regrant generation = %d, want 4", got)
	}
	w.release(1)

	// The snapshot of the current token holder exposes the same counter.
	if got := w.Nodes[1].Snapshot().Generation; got != 4 {
		t.Fatalf("holder snapshot generation = %d, want 4", got)
	}
}

// TestPrivilegeCarriesGeneration checks the wire payload directly: the
// PRIVILEGE sent on a pass carries the sender's grant count.
func TestPrivilegeCarriesGeneration(t *testing.T) {
	w := newWorld(t, topology.Line(2), 1)
	w.request(1)
	w.release(1)
	w.request(2)
	f := w.deliverTo(1) // REQUEST lands at the idle holder
	if f.Message().Kind() != "REQUEST" {
		t.Fatalf("delivered %s, want REQUEST", f.Message().Kind())
	}
	if len(w.Pending) != 1 {
		t.Fatalf("pending = %d messages, want the PRIVILEGE", len(w.Pending))
	}
	priv, ok := w.Pending[0].Message().(Privilege)
	if !ok {
		t.Fatalf("pending message is %T, want Privilege", w.Pending[0].Message())
	}
	if priv.Generation != 1 {
		t.Fatalf("PRIVILEGE generation = %d, want 1 (one grant so far)", priv.Generation)
	}
	w.drain()
	if got := w.Grants[2].Gen; got != 2 {
		t.Fatalf("node 2 grant generation = %d, want 2", got)
	}
}

// TestStalePrivilegeRejected: a PRIVILEGE whose generation is below the
// node's own counter is a duplicated or stale token — impossible under
// the paper's fail-free model — and must be refused.
func TestStalePrivilegeRejected(t *testing.T) {
	w := newWorld(t, topology.Line(2), 1)
	// Bump node 2's counter to 2 by giving it the token once.
	w.request(1)
	w.release(1)
	w.request(2)
	w.drain()
	w.release(2)
	// Token returns to node 1 (generation 3)...
	w.request(1)
	w.drain()
	// ...and node 2 requests again, so it is willing to accept a token.
	w.request(2)
	if err := w.Nodes[2].Deliver(1, Privilege{Generation: 1}); !errors.Is(err, mutex.ErrUnexpectedMessage) {
		t.Fatalf("stale PRIVILEGE accepted: err = %v, want ErrUnexpectedMessage", err)
	}
}

// TestTryRequest covers the non-blocking capability: only an idle holder
// grants, nobody else sends anything, and the contract errors match
// Request's.
func TestTryRequest(t *testing.T) {
	w := newWorld(t, topology.Star(3), 1)

	// A non-holder cannot try-acquire, and must not have sent a REQUEST.
	ok, err := w.Nodes[2].TryRequest()
	if err != nil || ok {
		t.Fatalf("non-holder TryRequest = (%v, %v), want (false, nil)", ok, err)
	}
	if len(w.Pending) != 0 {
		t.Fatalf("TryRequest sent %d messages, want none", len(w.Pending))
	}
	if got := w.Nodes[2].State(); got != StateN {
		t.Fatalf("non-holder state after TryRequest = %s, want N", got)
	}

	// The idle holder enters immediately, with the next generation.
	ok, err = w.Nodes[1].TryRequest()
	if err != nil || !ok {
		t.Fatalf("holder TryRequest = (%v, %v), want (true, nil)", ok, err)
	}
	if got := w.Grants[1].Gen; got != 1 {
		t.Fatalf("TryRequest grant generation = %d, want 1", got)
	}

	// While in the critical section both entry points report outstanding.
	if _, err := w.Nodes[1].TryRequest(); !errors.Is(err, mutex.ErrOutstanding) {
		t.Fatalf("TryRequest in CS = %v, want ErrOutstanding", err)
	}
	w.release(1)

	// After release the holder can try again.
	ok, err = w.Nodes[1].TryRequest()
	if err != nil || !ok {
		t.Fatalf("holder re-TryRequest = (%v, %v), want (true, nil)", ok, err)
	}
	if got := w.Grants[1].Gen; got != 2 {
		t.Fatalf("second TryRequest generation = %d, want 2", got)
	}
}
