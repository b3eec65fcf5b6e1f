package core

import (
	"errors"
	"fmt"
	"testing"

	"dagmutex/internal/mutex"
	"dagmutex/internal/topology"
)

// This file checks that the two message routes are one protocol: every
// scenario below is driven twice — through an Env without MsgSender plus
// Deliver, and through an Env with it plus DeliverMsg — and must leave
// the same log of everything observable (sends, grants, Figure 4
// transitions, trace and recovery events, and every node's snapshot
// after every step). The by-value edge cases are pinned directly after.

// routeFlight is one sent-but-undelivered message, on whichever route the
// node sent it.
type routeFlight struct {
	from, to mutex.ID
	msg      mutex.Message // boxed route
	val      Msg           // by-value route (Kind != MsgNone)
}

func (f routeFlight) boxed() mutex.Message {
	if f.val.Kind != MsgNone {
		return f.val.Boxed()
	}
	return f.msg
}

// routeWorld drives core nodes synchronously, like world and chaosWorld,
// on one of the two routes, logging everything observable.
type routeWorld struct {
	t       *testing.T
	byValue bool
	nodes   map[mutex.ID]*Node
	ids     []mutex.ID
	pending []routeFlight
	cut     map[mutex.ID]bool // crashed or partitioned: traffic to and from is dropped
	grants  map[mutex.ID]int
	log     []string

	hotBoxed, hotByValue int // REQUESTs and PRIVILEGEs sent on each route
}

// boxedEnv is exactly mutex.Env: the shape of every host that wants to
// see messages as values (bench's shims, cmd/dagtrace).
type boxedEnv struct {
	w  *routeWorld
	id mutex.ID
}

func (e *boxedEnv) Send(to mutex.ID, m mutex.Message) {
	switch m.(type) {
	case Request, Privilege:
		e.w.hotBoxed++
	}
	e.w.sent(routeFlight{from: e.id, to: to, msg: m})
}

func (e *boxedEnv) Granted(gen uint64) {
	e.w.grants[e.id]++
	e.w.logf("grant node=%d gen=%d", e.id, gen)
}

// valueEnv adds the capability.
type valueEnv struct{ boxedEnv }

func (e *valueEnv) SendMsg(to mutex.ID, m Msg) {
	e.w.hotByValue++
	e.w.sent(routeFlight{from: e.id, to: to, val: m})
}

func newRouteWorld(t *testing.T, byValue bool, tree *topology.Tree, holder mutex.ID) *routeWorld {
	t.Helper()
	w := &routeWorld{t: t, byValue: byValue, nodes: make(map[mutex.ID]*Node), ids: tree.IDs(),
		cut: make(map[mutex.ID]bool), grants: make(map[mutex.ID]int)}
	cfg := mutex.Config{IDs: tree.IDs(), Holder: holder, Parent: tree.ParentsToward(holder)}
	for _, id := range w.ids {
		id := id
		var env mutex.Env = &boxedEnv{w: w, id: id}
		if byValue {
			env = &valueEnv{boxedEnv{w: w, id: id}}
		}
		n, err := New(id, env, cfg, WithObserver(^EventSet(0), func(e Event) {
			if e.Transition != 0 {
				w.logf("transition node=%d %v->%v", e.Node, e.Transition, e.State)
			}
			w.logf("event %+v", e)
		}))
		if err != nil {
			t.Fatalf("New(%d): %v", id, err)
		}
		w.nodes[id] = n
	}
	return w
}

func (w *routeWorld) logf(format string, args ...any) {
	w.log = append(w.log, fmt.Sprintf(format, args...))
}

func (w *routeWorld) sent(f routeFlight) {
	w.logf("send %d->%d %#v", f.from, f.to, f.boxed())
	w.pending = append(w.pending, f)
}

// step closes one script step: every node's control state goes on the log.
func (w *routeWorld) step(what string, err error) {
	w.t.Helper()
	if err != nil {
		w.t.Fatalf("%s: %v", what, err)
	}
	w.logf("after %s:", what)
	for _, id := range w.ids {
		w.logf("  %+v", w.nodes[id].Snapshot())
	}
}

func (w *routeWorld) deliver(f routeFlight) error {
	if f.val.Kind != MsgNone {
		return w.nodes[f.to].DeliverMsg(f.from, f.val)
	}
	return w.nodes[f.to].Deliver(f.from, f.msg)
}

func (w *routeWorld) request(id mutex.ID) {
	w.t.Helper()
	w.step(fmt.Sprintf("request(%d)", id), w.nodes[id].Request())
}

func (w *routeWorld) release(id mutex.ID) {
	w.t.Helper()
	w.step(fmt.Sprintf("release(%d)", id), w.nodes[id].Release())
}

func (w *routeWorld) releaseRequest(id mutex.ID) {
	w.t.Helper()
	w.step(fmt.Sprintf("releaseRequest(%d)", id), w.nodes[id].ReleaseRequest())
}

func (w *routeWorld) regrant(id mutex.ID) {
	w.t.Helper()
	ok, err := w.nodes[id].Regrant()
	w.step(fmt.Sprintf("regrant(%d)=%v", id, ok), err)
}

// deliverTo delivers the oldest pending message addressed to to.
func (w *routeWorld) deliverTo(to mutex.ID) {
	w.t.Helper()
	for i, f := range w.pending {
		if f.to == to {
			w.pending = append(w.pending[:i], w.pending[i+1:]...)
			w.step(fmt.Sprintf("deliverTo(%d)", to), w.deliver(f))
			return
		}
	}
	w.t.Fatalf("no pending message for node %d", to)
}

// drain delivers everything pending (and whatever that triggers) in send
// order; traffic to or from a cut member is dropped.
func (w *routeWorld) drain() {
	w.t.Helper()
	for steps := 0; len(w.pending) > 0; steps++ {
		if steps > 10000 {
			w.t.Fatal("drain: message storm")
		}
		f := w.pending[0]
		w.pending = w.pending[1:]
		if w.cut[f.to] || w.cut[f.from] {
			continue
		}
		if err := w.deliver(f); err != nil {
			w.t.Fatalf("deliver %s %d->%d: %v", f.boxed().Kind(), f.from, f.to, err)
		}
	}
	w.step("drain", nil)
}

// crash cuts id off for good and drops its in-flight traffic.
func (w *routeWorld) crash(id mutex.ID) {
	w.cut[id] = true
	kept := w.pending[:0]
	for _, f := range w.pending {
		if f.to != id && f.from != id {
			kept = append(kept, f)
		}
	}
	w.pending = kept
}

func (w *routeWorld) suspect(at, down mutex.ID) {
	w.t.Helper()
	w.step(fmt.Sprintf("suspect(%d at %d)", down, at), w.nodes[at].PeerDown(down))
}

func (w *routeWorld) suspectEverywhere(down mutex.ID) {
	w.t.Helper()
	for _, id := range w.ids {
		if !w.cut[id] && id != down {
			w.suspect(id, down)
		}
	}
}

func (w *routeWorld) peerUp(at, peer mutex.ID) {
	w.t.Helper()
	w.step(fmt.Sprintf("peerUp(%d at %d)", peer, at), w.nodes[at].PeerUp(peer))
}

// inject hands to a REQUEST as if from had sent it, on the world's route.
func (w *routeWorld) inject(from, to mutex.ID, r Request) {
	w.t.Helper()
	f := routeFlight{from: from, to: to, msg: r}
	if w.byValue {
		f = routeFlight{from: from, to: to, val: RequestMsg(r)}
	}
	w.step(fmt.Sprintf("inject(%d->%d %+v)", from, to, r), w.deliver(f))
}

type routeScenario struct {
	name       string
	tree       func() (*topology.Tree, mutex.ID)
	script     func(w *routeWorld)
	wantGrants map[mutex.ID]int
}

func at(tree *topology.Tree, holder mutex.ID) func() (*topology.Tree, mutex.ID) {
	return func() (*topology.Tree, mutex.ID) { return tree, holder }
}

var routeScenarios = []routeScenario{
	{
		name: "figure 2", tree: topology.Figure2,
		script: func(w *routeWorld) {
			w.request(5)
			w.request(3)
			w.deliverTo(4)
			w.deliverTo(5)
			w.release(5)
			w.deliverTo(3)
			w.release(3)
		},
		wantGrants: map[mutex.ID]int{5: 1, 3: 1},
	},
	{
		name: "figure 6", tree: topology.Figure6,
		script: func(w *routeWorld) {
			w.request(3)
			w.request(2)
			w.deliverTo(3)
			w.request(1)
			w.request(5)
			w.deliverTo(2)
			w.deliverTo(2)
			w.deliverTo(1)
			w.release(3)
			w.deliverTo(2)
			w.release(2)
			w.deliverTo(1)
			w.release(1)
			w.deliverTo(5)
			w.release(5)
		},
		wantGrants: map[mutex.ID]int{3: 1, 2: 1, 1: 1, 5: 1},
	},
	{
		name: "fused handoff", tree: at(topology.Line(3), 1),
		script: func(w *routeWorld) {
			w.request(1)
			w.request(2)
			w.drain()
			w.releaseRequest(1)
			w.drain()
			w.release(2)
			w.drain()
		},
		wantGrants: map[mutex.ID]int{1: 2, 2: 1},
	},
	{
		name: "fused handoff falls back when NEXT diverges", tree: at(topology.Star(3), 1),
		script: func(w *routeWorld) {
			w.request(1)
			w.request(2)
			w.drain()
			w.request(3)
			w.drain()
			w.releaseRequest(1)
			w.drain()
			w.release(2)
			w.drain()
			w.release(3)
			w.drain()
		},
		wantGrants: map[mutex.ID]int{1: 2, 2: 1, 3: 1},
	},
	{
		name: "regrant", tree: at(topology.Line(3), 1),
		script: func(w *routeWorld) {
			w.request(1)
			w.request(2)
			w.drain()
			w.regrant(1)
			w.release(1)
			w.drain()
		},
		wantGrants: map[mutex.ID]int{1: 2, 2: 1},
	},
	{
		name: "holder crash regenerates", tree: at(topology.Star(5), 1),
		script: func(w *routeWorld) {
			w.request(1)
			w.request(3)
			w.drain()
			w.crash(1)
			w.suspectEverywhere(1)
			w.drain()
			w.release(3)
			w.request(2)
			w.drain()
		},
		wantGrants: map[mutex.ID]int{1: 1, 3: 1, 2: 1},
	},
	{
		name: "waiter crash excises FOLLOW", tree: at(topology.Star(5), 1),
		script: func(w *routeWorld) {
			w.request(1)
			w.request(3)
			w.drain()
			w.crash(3)
			w.suspectEverywhere(3)
			w.drain()
			w.release(1)
			w.request(2)
			w.drain()
		},
		wantGrants: map[mutex.ID]int{1: 1, 2: 1},
	},
	{
		name: "in-flight token annihilated", tree: at(topology.Line(3), 1),
		script: func(w *routeWorld) {
			w.request(1)
			w.request(3)
			w.drain()
			w.release(1) // PRIVILEGE to 3 in flight under epoch 0
			w.crash(2)
			w.suspect(3, 2)
			w.suspect(1, 2)
			w.drain() // the stale token arrives behind the recovery
		},
		wantGrants: map[mutex.ID]int{1: 1, 3: 1},
	},
	{
		name: "false suspicion, PeerUp, WELCOME", tree: at(topology.Star(3), 3),
		script: func(w *routeWorld) {
			w.request(3)
			w.suspect(1, 3)
			w.suspect(2, 3)
			w.cut[3] = true // partitioned, not dead
			w.drain()
			w.cut[3] = false
			w.peerUp(2, 3)
			w.peerUp(1, 3)
			w.drain()
			w.release(3)
			w.request(3)
			w.drain()
		},
		wantGrants: map[mutex.ID]int{3: 2},
	},
	{
		name: "request during freeze is reissued", tree: at(topology.Star(3), 1),
		script: func(w *routeWorld) {
			w.crash(2)
			w.suspect(3, 2)
			w.request(3)
			w.suspect(1, 2)
			w.drain()
		},
		wantGrants: map[mutex.ID]int{3: 1},
	},
	{
		name: "coordinator death hands over", tree: at(topology.Star(5), 1),
		script: func(w *routeWorld) {
			w.request(1)
			w.request(3)
			w.drain()
			w.crash(1)
			w.suspectEverywhere(1)
			w.deliverTo(2)
			w.deliverTo(3)
			w.deliverTo(4)
			w.crash(5)
			w.suspectEverywhere(5)
			w.drain()
		},
		wantGrants: map[mutex.ID]int{1: 1, 3: 1},
	},
	{
		// A member excised while partitioned learns of it from the first
		// newer-epoch REQUEST it hears, asks for re-admission (JOIN), is
		// welcomed, and re-issues the request it had outstanding.
		name: "excised member JOINs on newer-epoch traffic", tree: at(topology.Star(3), 1),
		script: func(w *routeWorld) {
			w.request(1)
			w.cut[3] = true
			w.suspect(2, 3)
			w.suspect(1, 3)
			w.drain()
			w.request(3) // its epoch-0 REQUEST is lost in the partition
			w.drain()
			w.cut[3] = false
			w.inject(2, 3, Request{From: 2, Origin: 2, Epoch: 1})
			w.drain()
			w.release(1)
			w.drain()
		},
		wantGrants: map[mutex.ID]int{1: 1, 3: 1},
	},
}

func TestRoutesAreEquivalent(t *testing.T) {
	for _, sc := range routeScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			run := func(byValue bool) *routeWorld {
				tree, holder := sc.tree()
				w := newRouteWorld(t, byValue, tree, holder)
				sc.script(w)
				return w
			}
			boxed, byValue := run(false), run(true)

			// Each world stayed on its route, and the scenario moved hot
			// messages at all.
			if boxed.hotByValue != 0 || boxed.hotBoxed == 0 {
				t.Fatalf("boxed world sent %d hot messages boxed, %d by value", boxed.hotBoxed, boxed.hotByValue)
			}
			if byValue.hotBoxed != 0 || byValue.hotByValue != boxed.hotBoxed {
				t.Fatalf("by-value world sent %d hot messages by value and %d boxed, want %d and 0",
					byValue.hotByValue, byValue.hotBoxed, boxed.hotBoxed)
			}
			for id, want := range sc.wantGrants {
				if got := boxed.grants[id]; got != want {
					t.Errorf("node %d granted %d times, want %d", id, got, want)
				}
			}
			for i := 0; i < len(boxed.log) || i < len(byValue.log); i++ {
				var a, b string
				if i < len(boxed.log) {
					a = boxed.log[i]
				}
				if i < len(byValue.log) {
					b = byValue.log[i]
				}
				if a != b {
					t.Fatalf("routes diverge at log line %d:\n  boxed:    %s\n  by value: %s", i, a, b)
				}
			}
		})
	}
}

// edgeNode builds node id of a three-member star around node 1 over a
// by-value Env, returning the node and its world (for the log and the
// pending sends).
func edgeNode(t *testing.T, id mutex.ID) (*Node, *routeWorld) {
	t.Helper()
	w := newRouteWorld(t, true, topology.Star(3), 1)
	return w.nodes[id], w
}

// TestDeliverMsgWhileFrozenDefersAndReplaysInOrder: by-value traffic of
// the current epoch that reaches a frozen node waits for the REORIENT and
// is then replayed in arrival order.
func TestDeliverMsgWhileFrozenDefersAndReplaysInOrder(t *testing.T) {
	n, w := edgeNode(t, 2)
	if err := n.Request(); err != nil {
		t.Fatal(err)
	}
	if err := n.Deliver(3, Probe{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if !n.Snapshot().Frozen {
		t.Fatal("setup: node did not freeze on PROBE")
	}
	w.log = nil
	// A grant racing ahead of the REORIENT, then a REQUEST behind it.
	if err := n.DeliverMsg(3, PrivilegeMsg(Privilege{Generation: 7, Epoch: 1})); err != nil {
		t.Fatal(err)
	}
	if err := n.DeliverMsg(1, RequestMsg(Request{From: 1, Origin: 1, Epoch: 1})); err != nil {
		t.Fatal(err)
	}
	if s := n.Snapshot(); s.InCS || s.Follow != mutex.Nil || w.grants[2] != 0 {
		t.Fatalf("frozen node acted on deferred traffic: %+v, %d grants", s, w.grants[2])
	}
	if got := n.Storage().QueueEntries; got != 2 {
		t.Fatalf("deferred queue holds %d entries, want 2", got)
	}
	// The rebuilt chain ends here: this node is the sink.
	if err := n.Deliver(3, Reorient{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	s := n.Snapshot()
	if s.Frozen || !s.InCS || s.Follow != 1 || s.Generation != 8 || w.grants[2] != 1 {
		t.Fatalf("after REORIENT: %+v, %d grants; want in CS at generation 8 with FOLLOW=1", s, w.grants[2])
	}
	// Arrival order: the token first (transition 4 into E), then the
	// request saved behind it (transition 2 into EF). The other order
	// would read 2 (into RF) then 4.
	var transitions []string
	for _, l := range w.log {
		if len(l) > 10 && l[:10] == "transition" {
			transitions = append(transitions, l)
		}
	}
	want := []string{"transition node=2 4->E", "transition node=2 2->EF"}
	if fmt.Sprint(transitions) != fmt.Sprint(want) {
		t.Fatalf("replay order %v, want %v", transitions, want)
	}
	if n.Storage().QueueEntries != 0 {
		t.Fatal("deferred queue not emptied by the replay")
	}
}

// TestDeliverMsgStaleEpochIsDropped: a by-value message from a superseded
// epoch is annihilated with EventStaleDrop, like a boxed one.
func TestDeliverMsgStaleEpochIsDropped(t *testing.T) {
	n, w := edgeNode(t, 2)
	if err := n.Deliver(3, Probe{Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := n.Deliver(3, Reorient{Epoch: 1, Next: 3}); err != nil {
		t.Fatal(err)
	}
	before, sends := n.Snapshot(), len(w.pending)
	w.log = nil
	for _, m := range []Msg{
		RequestMsg(Request{From: 1, Origin: 1, Epoch: 0}),
		PrivilegeMsg(Privilege{Generation: 9, Epoch: 0}),
	} {
		if err := n.DeliverMsg(1, m); err != nil {
			t.Fatalf("stale %v: %v", m.Kind, err)
		}
	}
	if n.Snapshot() != before || len(w.pending) != sends {
		t.Fatalf("stale traffic changed state or sent: %+v", n.Snapshot())
	}
	drops := 0
	for _, l := range w.log {
		if l == fmt.Sprintf("event %+v", Event{Kind: EventStaleDrop, State: before.State(), Node: 2, Peer: 1, Epoch: 1}) {
			drops++
		}
	}
	if drops != 2 {
		t.Fatalf("saw %d EventStaleDrop, want 2; log %q", drops, w.log)
	}
}

// TestDeliverMsgNewerEpochSendsOneJoin: newer-epoch by-value traffic is
// dropped and answered with exactly one JOIN per epoch.
func TestDeliverMsgNewerEpochSendsOneJoin(t *testing.T) {
	n, w := edgeNode(t, 2)
	before := n.Snapshot()
	for i := 0; i < 3; i++ {
		if err := n.DeliverMsg(3, PrivilegeMsg(Privilege{Generation: 50, Epoch: 4})); err != nil {
			t.Fatal(err)
		}
	}
	if n.Snapshot() != before {
		t.Fatalf("newer-epoch token was acted on: %+v", n.Snapshot())
	}
	if len(w.pending) != 1 {
		t.Fatalf("sent %d messages, want exactly one JOIN", len(w.pending))
	}
	if f := w.pending[0]; f.to != 3 || f.msg != (Join{}) {
		t.Fatalf("sent %#v to %d, want Join{} to 3", f.msg, f.to)
	}
}

// TestDeliverMsgBeforeInitMatchesDeliver: an uninitialized node rejects
// a by-value message with the error text Deliver produces.
func TestDeliverMsgBeforeInitMatchesDeliver(t *testing.T) {
	tree := topology.Line(2)
	cfg := mutex.Config{IDs: tree.IDs(), Holder: 1, Neighbors: map[mutex.ID][]mutex.ID{1: {2}, 2: {1}}}
	w := &routeWorld{t: t, grants: make(map[mutex.ID]int)}
	n, err := NewUninitialized(2, &valueEnv{boxedEnv{w: w, id: 2}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Msg{
		RequestMsg(Request{From: 1, Origin: 1}),
		PrivilegeMsg(Privilege{Generation: 1}),
	} {
		boxedErr := n.Deliver(1, m.Boxed())
		valueErr := n.DeliverMsg(1, m)
		if !errors.Is(valueErr, mutex.ErrUnexpectedMessage) {
			t.Fatalf("%v before INIT: %v, want ErrUnexpectedMessage", m.Kind, valueErr)
		}
		if boxedErr == nil || boxedErr.Error() != valueErr.Error() {
			t.Fatalf("%v before INIT: Deliver says %q, DeliverMsg says %q", m.Kind, boxedErr, valueErr)
		}
	}
}

// TestDeliverMsgWithoutKindIsAnError: the zero Msg, or one with a kind
// tag out of range, is refused — an error, not a panic — and changes
// nothing.
func TestDeliverMsgWithoutKindIsAnError(t *testing.T) {
	n, w := edgeNode(t, 2)
	before := n.Snapshot()
	for _, m := range []Msg{{}, {Kind: 3, Generation: 9}, {Kind: 255}} {
		if err := n.DeliverMsg(1, m); !errors.Is(err, mutex.ErrUnexpectedMessage) {
			t.Fatalf("DeliverMsg(%+v) = %v, want ErrUnexpectedMessage", m, err)
		}
		if m.Boxed() != nil {
			t.Fatalf("%+v boxes to %#v, want nil", m, m.Boxed())
		}
	}
	if n.Snapshot() != before || len(w.pending) != 0 {
		t.Fatal("a kind-less message changed state or sent")
	}
}

// TestMsgRoundTripsBothKinds: wrapping and unwrapping is the identity,
// and the union stays small and pointer-free enough to pool.
func TestMsgRoundTripsBothKinds(t *testing.T) {
	r := Request{From: 3, Origin: 7, Epoch: 2, Hops: 5}
	if got := RequestMsg(r).Request(); got != r {
		t.Fatalf("REQUEST round trip: %+v, want %+v", got, r)
	}
	if got := RequestMsg(r).Boxed(); got != mutex.Message(r) {
		t.Fatalf("REQUEST boxes to %#v", got)
	}
	p := Privilege{Generation: 1 << 40, Epoch: 2, Requesting: true, Hops: 5}
	if got := PrivilegeMsg(p).Privilege(); got != p {
		t.Fatalf("PRIVILEGE round trip: %+v, want %+v", got, p)
	}
	if got := PrivilegeMsg(p).Boxed(); got != mutex.Message(p) {
		t.Fatalf("PRIVILEGE boxes to %#v", got)
	}
	if MsgRequest.String() != "REQUEST" || MsgPrivilege.String() != "PRIVILEGE" {
		t.Fatalf("kind names %q, %q", MsgRequest, MsgPrivilege)
	}
}
