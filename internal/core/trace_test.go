package core

import (
	"testing"

	"dagmutex/internal/mutex"
	"dagmutex/internal/telemetry"
	"dagmutex/internal/topology"
)

// newTracedWorld is newWorld with a trace observer on every node,
// appending into one shared stream (the synchronous world delivers one
// message at a time, so the stream order is the causal order).
func newTracedWorld(t *testing.T, tree *topology.Tree, holder mutex.ID, stream *[]telemetry.TraceEvent) *world {
	t.Helper()
	return newWorld(t, tree, holder, WithObserver(TracedEvents, func(e Event) {
		*stream = append(*stream, e.Trace())
	}))
}

// TestTraceStreamCausalChain drives one remote acquire across a 3-node
// line and checks the full request→forward→privilege→grant chain comes
// out of the trace stream, with the privilege and grant sharing one
// causal trace ID.
func TestTraceStreamCausalChain(t *testing.T) {
	var stream []telemetry.TraceEvent
	w := newTracedWorld(t, topology.Line(3), 1, &stream)

	w.request(3) // 3 -> REQUEST -> 2 -> FORWARD -> 1 -> PRIVILEGE -> 3
	w.drain()

	var kinds []telemetry.TraceKind
	for _, e := range stream {
		kinds = append(kinds, e.Kind)
	}
	want := []telemetry.TraceKind{
		telemetry.TraceRequest, telemetry.TraceForward,
		telemetry.TracePrivilege, telemetry.TraceGrant,
	}
	if len(kinds) != len(want) {
		t.Fatalf("trace stream kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("trace stream kinds = %v, want %v", kinds, want)
		}
	}

	req, fwd, priv, grant := stream[0], stream[1], stream[2], stream[3]
	if req.Node != 3 || req.Peer != 2 || req.Origin != 3 {
		t.Errorf("REQUEST event wrong: %s", req)
	}
	if fwd.Node != 2 || fwd.Peer != 1 || fwd.Origin != 3 || fwd.Hops != 1 {
		t.Errorf("FORWARD event wrong: %s", fwd)
	}
	if priv.Node != 1 || priv.Peer != 3 || priv.Origin != 3 || priv.Hops != 2 {
		t.Errorf("PRIVILEGE event wrong: %s", priv)
	}
	if grant.Node != 3 || grant.Origin != 3 || grant.Hops != 2 {
		t.Errorf("GRANT event wrong: %s", grant)
	}
	if grant.Fence != priv.Fence+1 {
		t.Errorf("grant fence %d does not follow dispatched token generation %d", grant.Fence, priv.Fence)
	}
	if priv.TraceID().Origin != grant.TraceID().Origin {
		t.Errorf("privilege and grant disagree on origin: %x vs %x", priv.TraceID(), grant.TraceID())
	}
}

// TestTraceStreamFenceMonotonic checks that GRANT events carry strictly
// increasing fences across a contended run — the property the
// conformance battery later verifies over live substrates.
func TestTraceStreamFenceMonotonic(t *testing.T) {
	var stream []telemetry.TraceEvent
	w := newTracedWorld(t, topology.Star(4), 1, &stream)

	for round := 0; round < 3; round++ {
		for id := mutex.ID(1); id <= 4; id++ {
			w.request(id)
			w.drain()
			w.release(id)
			w.drain()
		}
	}
	var last uint64
	grants := 0
	for _, e := range stream {
		if e.Kind != telemetry.TraceGrant {
			continue
		}
		grants++
		if e.Fence <= last {
			t.Fatalf("grant fence %d not above previous %d", e.Fence, last)
		}
		last = e.Fence
	}
	if grants != 12 {
		t.Fatalf("saw %d grants, want 12", grants)
	}
}

// TestTraceRecoveryBridge checks Event.Trace maps the recovery
// vocabulary into the shared trace vocabulary.
func TestTraceRecoveryBridge(t *testing.T) {
	ev := Event{Kind: EventPeerDown, Node: 1, Peer: 3, Epoch: 2, Fence: 7}
	tr := ev.Trace()
	if tr.Kind != telemetry.TraceRecovery || tr.Detail != "PEER-DOWN" ||
		tr.Node != 1 || tr.Peer != 3 || tr.Epoch != 2 || tr.Fence != 7 {
		t.Fatalf("Event.Trace() = %+v", tr)
	}
}
