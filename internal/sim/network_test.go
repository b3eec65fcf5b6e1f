package sim

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"dagmutex/internal/core"
	"dagmutex/internal/mutex"
	"dagmutex/internal/vclock"
)

// testMsg is a minimal message carrying an ordering tag.
type testMsg struct {
	tag int
}

func (m testMsg) Kind() string { return "TEST" }
func (m testMsg) Size() int    { return mutex.IntSize }

// sink records deliveries and otherwise behaves as an inert node.
type sink struct {
	id   mutex.ID
	got  []testMsg
	from []mutex.ID
}

func (s *sink) ID() mutex.ID           { return s.id }
func (s *sink) Request() error         { return nil }
func (s *sink) Release() error         { return nil }
func (s *sink) Storage() mutex.Storage { return mutex.Storage{} }
func (s *sink) Deliver(from mutex.ID, m mutex.Message) error {
	s.got = append(s.got, m.(testMsg))
	s.from = append(s.from, from)
	return nil
}

// testClock adapts the virtual clock to the two things these tests ask
// of time: run to quiescence, and read the tick count.
type testClock struct{ *vclock.Virtual }

func (c testClock) Run()      { c.Drain(1 << 20) }
func (c testClock) Now() Time { return Time(c.Elapsed()) }

func newNet(opts ...NetworkOption) (testClock, *Network) {
	clk := vclock.NewVirtual()
	return testClock{clk}, NewNetwork(clk, opts...)
}

func newTestNet(t *testing.T, opts ...NetworkOption) (testClock, *Network, *sink, *sink) {
	t.Helper()
	sched, net := newNet(opts...)
	a, b := &sink{id: 1}, &sink{id: 2}
	net.Attach(a)
	net.Attach(b)
	return sched, net, a, b
}

func TestNetworkDeliversWithUnitLatency(t *testing.T) {
	sched, net, _, b := newTestNet(t)
	net.Send(1, 2, testMsg{tag: 7})
	sched.Run()
	if len(b.got) != 1 || b.got[0].tag != 7 {
		t.Fatalf("delivery = %+v, want one message with tag 7", b.got)
	}
	if b.from[0] != 1 {
		t.Fatalf("from = %d, want 1", b.from[0])
	}
	if sched.Now() != Hop {
		t.Fatalf("delivery time = %d, want %d", sched.Now(), Hop)
	}
}

func TestNetworkFIFOPerLinkUnderRandomLatency(t *testing.T) {
	sched, net, _, b := newTestNet(t, WithLatency(UniformLatency(rand.New(rand.NewSource(1)), 1, 10*Hop)))
	const k = 50
	for i := 0; i < k; i++ {
		net.Send(1, 2, testMsg{tag: i})
	}
	sched.Run()
	if len(b.got) != k {
		t.Fatalf("delivered %d, want %d", len(b.got), k)
	}
	for i, m := range b.got {
		if m.tag != i {
			t.Fatalf("FIFO violated: position %d has tag %d", i, m.tag)
		}
	}
}

func TestNetworkWithoutFIFOCanReorder(t *testing.T) {
	// A deterministic adversarial latency: later sends get shorter delays.
	delays := []Time{3 * Hop, 1 * Hop}
	i := 0
	adversarial := func(_, _ mutex.ID) Time {
		d := delays[i%len(delays)]
		i++
		return d
	}
	sched, net := newNet(WithLatency(adversarial), WithoutFIFO())
	b := &sink{id: 2}
	net.Attach(&sink{id: 1})
	net.Attach(b)
	net.Send(1, 2, testMsg{tag: 0})
	net.Send(1, 2, testMsg{tag: 1})
	sched.Run()
	if b.got[0].tag != 1 || b.got[1].tag != 0 {
		t.Fatalf("expected reordering without FIFO clamp, got %+v", b.got)
	}
}

func TestNetworkCounts(t *testing.T) {
	sched, net, _, _ := newTestNet(t)
	net.Send(1, 2, testMsg{})
	net.Send(2, 1, testMsg{})
	sched.Run()
	got := net.Counts()
	if got.Messages != 2 {
		t.Fatalf("Messages = %d, want 2", got.Messages)
	}
	wantBytes := int64(2 * (mutex.IntSize + mutex.KindSize))
	if got.Bytes != wantBytes {
		t.Fatalf("Bytes = %d, want %d", got.Bytes, wantBytes)
	}
	if got.ByKind["TEST"] != 2 {
		t.Fatalf("ByKind[TEST] = %d, want 2", got.ByKind["TEST"])
	}
}

func TestNetworkDropRule(t *testing.T) {
	sched, net := newNet(WithDropRule(func(_, _ mutex.ID, m mutex.Message) bool {
		return m.(testMsg).tag%2 == 0
	}))
	b := &sink{id: 2}
	net.Attach(&sink{id: 1})
	net.Attach(b)
	for i := 0; i < 4; i++ {
		net.Send(1, 2, testMsg{tag: i})
	}
	sched.Run()
	if len(b.got) != 2 || b.got[0].tag != 1 || b.got[1].tag != 3 {
		t.Fatalf("drop rule failed: delivered %+v", b.got)
	}
	// Dropped messages still count as sent: the sender paid for them.
	if c := net.Counts(); c.Messages != 4 {
		t.Fatalf("Messages = %d, want 4 (drops count as sends)", c.Messages)
	}
}

func TestNetworkObserver(t *testing.T) {
	var seen []Delivery
	sched, net := newNet(WithObserver(func(d Delivery) { seen = append(seen, d) }))
	b := &sink{id: 2}
	net.Attach(&sink{id: 1})
	net.Attach(b)
	net.Send(1, 2, testMsg{tag: 9})
	sched.Run()
	if len(seen) != 1 {
		t.Fatalf("observer saw %d deliveries, want 1", len(seen))
	}
	d := seen[0]
	if d.From != 1 || d.To != 2 || d.SentAt != 0 || d.DeliverAt != Hop {
		t.Fatalf("observed delivery %+v", d)
	}
}

func TestNetworkSendToUnknownPanics(t *testing.T) {
	_, net, _, _ := newTestNet(t)
	defer func() {
		if recover() == nil {
			t.Error("send to unknown node did not panic")
		}
	}()
	net.Send(1, 99, testMsg{})
}

// TestNetworkCrashDropsTraffic: a crashed node's traffic — both
// directions — is dropped. What the victim had already sent still
// arrives (it was on the wire when the crash happened); what was in
// flight to the victim dies with it, dropped on arrival and counted.
func TestNetworkCrashDropsTraffic(t *testing.T) {
	sched, net, a, b := newTestNet(t)
	net.Send(2, 1, testMsg{tag: 1}) // on the wire before the sender crashes
	net.Send(1, 2, testMsg{tag: 2}) // in flight to the victim: dropped on arrival
	net.Member(2).Down = true
	net.Send(1, 2, testMsg{tag: 3}) // dropped: receiver dead
	net.Send(2, 1, testMsg{tag: 4}) // dropped: sender dead
	sched.Run()
	if len(a.got) != 1 || a.got[0].tag != 1 {
		t.Fatalf("survivor got %+v, want only the pre-crash tag 1", a.got)
	}
	if len(b.got) != 0 {
		t.Fatalf("crashed receiver got %+v", b.got)
	}
	if c := net.Counts(); c.Messages != 4 || c.Delivered != 1 || c.Dropped != 3 {
		t.Fatalf("counts = %d sent / %d delivered / %d dropped, want 4/1/3", c.Messages, c.Delivered, c.Dropped)
	}
	net.Member(2).Down = false // a restarted process
	net.Send(1, 2, testMsg{tag: 5})
	sched.Run()
	if len(b.got) != 1 || b.got[0].tag != 5 {
		t.Fatalf("post-revive delivery = %+v, want tag 5", b.got)
	}
}

// TestNetworkOneWaySeverance: a drop rule on one directed link cuts
// exactly that direction — the one-way severance the FIFO-assumption
// ablations and asymmetric-fault tests need — until it is lifted.
func TestNetworkOneWaySeverance(t *testing.T) {
	severed := true
	sched, net, a, b := newTestNet(t, WithDropRule(func(from, to mutex.ID, _ mutex.Message) bool {
		return severed && from == 1 && to == 2
	}))
	net.Send(1, 2, testMsg{tag: 1}) // severed direction: dropped
	net.Send(2, 1, testMsg{tag: 2}) // reverse direction: flows
	sched.Run()
	if len(b.got) != 0 {
		t.Fatalf("severed direction delivered %+v", b.got)
	}
	if len(a.got) != 1 || a.got[0].tag != 2 {
		t.Fatalf("reverse direction = %+v, want tag 2", a.got)
	}
	severed = false
	net.Send(1, 2, testMsg{tag: 3})
	sched.Run()
	if len(b.got) != 1 || b.got[0].tag != 3 {
		t.Fatalf("restored link delivered %+v, want tag 3", b.got)
	}
}

// TestNetworkPartitionAndHealOrdering: cross-side sends during the
// partition vanish (they are not queued for later), intra-side traffic
// flows, and after the sides are rejoined the per-link FIFO clamp still
// orders post-heal sends after every pre-partition delivery on the same
// link.
func TestNetworkPartitionAndHealOrdering(t *testing.T) {
	sched, net := newNet()
	nodes := make([]*sink, 4)
	for i := range nodes {
		nodes[i] = &sink{id: mutex.ID(i + 1)}
		net.Attach(nodes[i])
	}
	net.Send(1, 3, testMsg{tag: 1}) // pre-partition, crosses the future cut
	net.Member(3).Side, net.Member(4).Side = 1, 1
	net.Send(1, 3, testMsg{tag: 2}) // cross-side: dropped forever
	net.Send(1, 2, testMsg{tag: 3}) // intra-side: flows
	net.Send(4, 3, testMsg{tag: 4}) // intra-side: flows
	sched.Run()
	if got := nodes[2].got; len(got) != 2 || got[0].tag != 1 || got[1].tag != 4 {
		t.Fatalf("node 3 got %+v, want the pre-partition tag 1 and intra-side tag 4 (dropped tag 2 gone)", got)
	}
	if len(nodes[1].got) != 1 || nodes[1].got[0].tag != 3 {
		t.Fatalf("node 2 got %+v, want tag 3", nodes[1].got)
	}

	net.Member(3).Side, net.Member(4).Side = 0, 0 // heal
	net.Send(1, 3, testMsg{tag: 5})
	net.Send(1, 3, testMsg{tag: 6})
	sched.Run()
	got := nodes[2].got
	if len(got) != 4 || got[2].tag != 5 || got[3].tag != 6 {
		t.Fatalf("post-heal deliveries at node 3 = %+v, want [1 4 5 6] in order (no resurrected tag 2)", got)
	}

	// A member on a side of its own reaches nobody.
	net.Member(3).Side, net.Member(4).Side = 1, 2
	net.Send(1, 4, testMsg{tag: 7})
	net.Send(3, 4, testMsg{tag: 8})
	sched.Run()
	if len(nodes[3].got) != 0 {
		t.Fatalf("isolated node got %+v under a partition, want nothing", nodes[3].got)
	}
}

// TestNetworkSharedInjector keeps the name it had when a failure.Injector
// plan was plugged into the network. What that plan did to a run — veto
// sends, stretch one link's arrival times — is now done with the
// engine's own means, and the fault state is one shared object in the
// sense that matters: the Member the test marks is the Member the send
// path and the delivery path read (as internal/cluster's checker and
// simharness's schedules do through the cluster).
func TestNetworkSharedInjector(t *testing.T) {
	sched, net, _, b := newTestNet(t, WithLatency(func(from, to mutex.ID) Time {
		if from == 1 && to == 2 {
			return 4 * Hop
		}
		return Hop
	}))
	m := net.Member(1)
	m.Side = 1
	net.Send(1, 2, testMsg{tag: 1})
	sched.Run()
	if len(b.got) != 0 {
		t.Fatalf("vetoed send delivered: %+v", b.got)
	}
	m.Side = 0
	net.Send(1, 2, testMsg{tag: 2})
	sched.Run()
	if len(b.got) != 1 || b.got[0].tag != 2 {
		t.Fatalf("delayed send = %+v, want tag 2", b.got)
	}
	if sched.Now() != 4*Hop {
		t.Fatalf("delayed arrival at t=%d, want %d (the link's own latency)", sched.Now(), 4*Hop)
	}
	if net.Member(99) != nil || net.Member(0) != nil {
		t.Fatalf("Member(99) = %v, Member(0) = %v, want nil for non-members", net.Member(99), net.Member(0))
	}
}

// recEnv is a core node's Env that records what the node sends.
type recEnv struct{ sent []mutex.Message }

func (e *recEnv) Send(_ mutex.ID, m mutex.Message) { e.sent = append(e.sent, m) }
func (e *recEnv) Granted(uint64)                   {}

// TestNetworkCarriesMsgByValue: a by-value send reaches a *core.Node
// through DeliverMsg as the same plain value, is boxed on arrival for a
// node without it (and for an observer), and is counted under the kind
// and size its boxed form reports — one event path for both.
func TestNetworkCarriesMsgByValue(t *testing.T) {
	var seen []Delivery
	sched, net := newNet()
	env := &recEnv{}
	a, err := core.New(1, env, mutex.Config{IDs: []mutex.ID{1, 2}, Holder: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := &boxSink{id: 2}
	net.Attach(a)
	net.Attach(b)
	if net.Member(1).byVal != a || net.Member(2).byVal != nil {
		t.Fatalf("by-value surfaces %p, %p; want the core node and nil", net.Member(1).byVal, net.Member(2).byVal)
	}
	req := core.RequestMsg(core.Request{From: 2, Origin: 2})
	net.SendMsg(2, 1, req)
	net.SendMsg(1, 2, core.PrivilegeMsg(core.Privilege{Generation: 7}))
	sched.Run()
	// The holder served the REQUEST: the token left for its origin.
	if s := a.Snapshot(); s.Holding || s.Next != 2 || len(env.sent) != 1 {
		t.Fatalf("core node after the REQUEST: %+v, sent %v; want the token passed to 2", s, env.sent)
	}
	if p, ok := b.last.(core.Privilege); !ok || p.Generation != 7 {
		t.Fatalf("boxed-only node got %#v, want a core.Privilege with generation 7", b.last)
	}
	c := net.Counts()
	wantBytes := int64(core.Request{}.Size() + core.Privilege{}.Size() + 2*mutex.KindSize)
	if c.Messages != 2 || c.ByKind["REQUEST"] != 1 || c.ByKind["PRIVILEGE"] != 1 || c.Bytes != wantBytes ||
		c.MaxSizeByKind["REQUEST"] != (core.Request{}).Size() {
		t.Fatalf("counts = %+v", c)
	}

	sched, net = newNet(WithObserver(func(d Delivery) { seen = append(seen, d) }))
	net.Attach(&boxSink{id: 1})
	net.Attach(&boxSink{id: 2})
	net.SendMsg(2, 1, req)
	sched.Run()
	if len(seen) != 1 || seen[0].Msg != mutex.Message(req.Request()) {
		t.Fatalf("observer saw %+v, want the boxed REQUEST", seen)
	}
}

// boxSink records the last boxed message it was handed.
type boxSink struct {
	id   mutex.ID
	last mutex.Message
}

func (s *boxSink) ID() mutex.ID           { return s.id }
func (s *boxSink) Request() error         { return nil }
func (s *boxSink) Release() error         { return nil }
func (s *boxSink) Storage() mutex.Storage { return mutex.Storage{} }
func (s *boxSink) Deliver(_ mutex.ID, m mutex.Message) error {
	s.last = m
	return nil
}

// TestAfterRunsSlotSteps: steps armed through After fire in (time,
// arming) order on the same timeline as deliveries, and wait as values in
// the network's pending table: a fired event leaves no reference behind
// there (no step, no message), and arming one takes a slot of the table
// without growing it.
func TestAfterRunsSlotSteps(t *testing.T) {
	sched, net, _, b := newTestNet(t)
	var order []mutex.ID
	step := func(a, _ mutex.ID) { order = append(order, a) }
	net.After(2*Hop, step, 3, 0)
	net.After(Hop, step, 1, 0)
	net.Send(1, 2, testMsg{tag: 9}) // arrives at Hop, armed after step 1
	net.After(Hop, step, 2, 0)
	sched.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("steps fired in order %v, want [1 2 3]", order)
	}
	if len(b.got) != 1 {
		t.Fatalf("delivery lost among the steps: %+v", b.got)
	}
	held := func() (slots []int) {
		for s, p := range net.pending {
			if p.step != nil || p.m != nil {
				slots = append(slots, s)
			}
		}
		return slots
	}
	if slots := held(); len(slots) != 0 {
		t.Fatalf("slots %v still hold a step or a message after every event fired", slots)
	}
	size := len(net.pending)
	net.After(Hop, step, 4, 0)
	slots := held()
	if len(net.pending) != size || len(slots) != 1 || net.pending[slots[0]].step == nil || net.pending[slots[0]].from != 4 {
		t.Fatalf("After filled slots %v of a table of %d (was %d), want one slot holding step(4) and the same table", slots, len(net.pending), size)
	}
}

// TestPendingTableFollowsTheClock: the payload table is as long as the
// clock's slot table, growing with a burst of 10 000 messages in flight
// and shrinking with it once the burst has been delivered and a few steps
// cycle on their own.
func TestPendingTableFollowsTheClock(t *testing.T) {
	clk, net, _, b := newTestNet(t)
	for i := range 10_000 {
		net.Send(1, 2, testMsg{tag: i})
	}
	if len(net.pending) != clk.Slots() || len(net.pending) < 10_000 {
		t.Fatalf("%d payload slots, %d clock slots, for 10 000 messages in flight", len(net.pending), clk.Slots())
	}
	var step func(a, b mutex.ID)
	step = func(a, b mutex.ID) { net.After(Hop, step, a, b) }
	for i := range 4 {
		net.After(Hop, step, mutex.ID(i), 0)
	}
	clk.Advance(time.Duration(100_000 * Hop))
	if len(b.got) != 10_000 {
		t.Fatalf("delivered %d of 10 000", len(b.got))
	}
	if len(net.pending) != clk.Slots() || len(net.pending) > 64 {
		t.Fatalf("%d payload slots, %d clock slots, for 4 steps pending; want the clock's smallest table", len(net.pending), clk.Slots())
	}
}

// TestMemberFitsOneCacheLine: the send path reads the sender's and the
// receiver's member on every message, so a member is one 64-byte cache
// line: the node, the fault state, the by-value node as a direct
// pointer, and the FIFO clamp's short list with its broadcast map behind
// one pointer.
func TestMemberFitsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(Member{}); size > 64 {
		t.Errorf("sim.Member is %d bytes, want <= 64", size)
	}
}
