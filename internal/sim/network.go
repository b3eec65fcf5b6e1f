package sim

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"dagmutex/internal/core"
	"dagmutex/internal/mutex"
	"dagmutex/internal/vclock"
)

// Network is a reliable message network on a virtual clock. It guarantees
// per-(sender, receiver) FIFO delivery — the ordering assumption the
// thesis makes of the physical network — by clamping each message's
// arrival time to strictly after the previous arrival on the same link,
// holds the run's one fault state (Member), and keeps the message
// accounting the Chapter 6 experiments and the fault runs report.
//
// Not safe for concurrent use: every method runs on the goroutine that
// advances the clock, which is also where every event fires — the
// contract that lets every event ride the clock's owner-only timeline
// (vclock.Virtual.ArmSlot) instead of a locked, cancellable timer.
//
// A pending event is no heap object: what it carries (a step, or a
// message with its ends and send time, the message by value when it
// travels that way) is a value in pending, at the index of the clock slot
// the event holds, and the clock hands that slot back when the event
// fires. The table is as long as the clock's slot table, which grows and
// shrinks with the pending set, so the network's storage follows it too.
type Network struct {
	clk  *vclock.Virtual
	lat  LatencyModel
	fifo bool

	// index maps an ID to its position in members plus one (0: not a
	// member) — the one id→index table; members is in Attach order.
	index   []int32
	members []Member

	// pending holds each pending event's payload at its clock slot; fire
	// is run bound once, the one callback every event is armed with.
	pending []payload
	fire    func(slot uint32)

	counts    Counts                       // Delivered and Dropped; Counts adds the sends
	sent      []kindCount                  // boxed sends, one slot per kind in first-sent order
	sentByVal [core.MsgPrivilege + 1]int64 // by-value sends, by kind
	observe   func(Delivery)
	drop      func(from, to mutex.ID, m mutex.Message) bool
	err       error
}

// Member is one attached node and the run's fault state for it — the
// only place crashes and partitions are recorded. The layer that hosts
// the nodes sets Down and Side; the network reads them: a crashed member
// sends nothing and whatever arrives for it is dropped (a message in
// flight to the victim dies with it), while a partition cuts at send
// time only — messages already in flight when a cut lands still arrive
// (they were on the wire), so delivery order around a cut stays exactly
// the clock's order.
//
// A member fits one 64-byte cache line (TestMemberFitsOneCacheLine).
type Member struct {
	Node mutex.Node
	Down bool  // crashed
	Side int32 // connectivity component (0 = the main partition); sends across sides are dropped

	// byVal is Node when it is a *core.Node, the one node type that takes
	// REQUEST and PRIVILEGE by value; nil means a by-value message is
	// boxed on arrival.
	byVal *core.Node
	// links is this sender's FIFO clamp: the arrival time of the latest
	// message it has in flight to each destination. A link never delivers
	// a later send before an earlier one, whatever the latency model
	// draws. Only links with a message still in flight are listed (see
	// clamp). Past maxLinks of them (a broadcast) the sender keeps far
	// instead.
	links []linkClamp
	far   *farClamp
}

// maxLinks is how many live links a sender's clamp scans linearly.
const maxLinks = 32

type linkClamp struct {
	to mutex.ID
	at Time
}

// farClamp is the clamp of a sender that went past maxLinks live links:
// a map, swept of arrived entries whenever it has doubled since the last
// sweep, at sweepAt entries.
type farClamp struct {
	at      map[mutex.ID]Time
	sweepAt int
}

// kindCount is the boxed sends of one message kind so far.
type kindCount struct {
	kind    string
	sent    int64
	bytes   int64
	maxSize int
}

// Counts aggregates message-traffic statistics for a run.
type Counts struct {
	// Messages, Bytes, ByKind and MaxSizeByKind count messages sent — the
	// thesis's currency: the sender paid for a message whether or not a
	// fault then swallowed it.
	Messages int64
	Bytes    int64
	ByKind   map[string]int64
	// MaxSizeByKind records the largest payload seen per message kind,
	// feeding the storage-overhead experiment (variable-size messages such
	// as the Suzuki–Kasami token grow with load).
	MaxSizeByKind map[string]int
	// Delivered counts messages handed to their destination; Dropped the
	// rest: cut at send time by a partition, a crashed sender or the drop
	// rule, or dropped on arrival at a member that crashed meanwhile.
	Delivered, Dropped int64
}

// add counts n sends of one kind and payload size.
func (c *Counts) add(kind string, size int, n int64) {
	c.Messages += n
	c.Bytes += n * int64(size+mutex.KindSize)
	c.ByKind[kind] += n
	c.MaxSizeByKind[kind] = max(c.MaxSizeByKind[kind], size)
}

// Delivery describes one message delivery, for tracing.
type Delivery struct {
	SentAt    Time
	DeliverAt Time
	From, To  mutex.ID
	Msg       mutex.Message
}

// NetworkOption configures a Network.
type NetworkOption func(*Network)

// WithLatency sets the latency model (default Unit(Hop)).
func WithLatency(l LatencyModel) NetworkOption { return func(n *Network) { n.lat = l } }

// WithoutFIFO disables the per-link FIFO clamp. The thesis assumes FIFO
// links; this option exists only for the ablation that demonstrates what
// breaks without them.
func WithoutFIFO() NetworkOption { return func(n *Network) { n.fifo = false } }

// WithObserver registers fn to be called at every delivery, for tracing.
// An observed message is shown boxed (a core.Request or core.Privilege
// value for the two the DAG protocol sends by value).
func WithObserver(fn func(Delivery)) NetworkOption { return func(n *Network) { n.observe = fn } }

// WithDropRule registers a predicate consulted on every send; returning
// true silently discards the message. Used by failure-injection tests,
// and the way to cut one direction of one link.
func WithDropRule(fn func(from, to mutex.ID, m mutex.Message) bool) NetworkOption {
	return func(n *Network) { n.drop = fn }
}

// NewNetwork creates a network on clk.
func NewNetwork(clk *vclock.Virtual, opts ...NetworkOption) *Network {
	n := &Network{
		clk:  clk,
		lat:  Unit(Hop),
		fifo: true,
	}
	n.fire = n.run
	for _, o := range opts {
		o(n)
	}
	return n
}

// Reserve sizes the member index for IDs up to maxID and room for
// members more attached nodes, so attaching them grows nothing.
func (n *Network) Reserve(maxID mutex.ID, members int) {
	if int(maxID) >= len(n.index) {
		n.index = append(n.index, make([]int32, int(maxID)+1-len(n.index))...)
	}
	n.members = slices.Grow(n.members, members)
}

// Attach registers node to receive deliveries addressed to its ID.
func (n *Network) Attach(node mutex.Node) {
	id := node.ID()
	for int(id) >= len(n.index) {
		n.index = append(n.index, 0)
	}
	byVal, _ := node.(*core.Node)
	n.members = append(n.members, Member{Node: node, byVal: byVal})
	n.index[id] = int32(len(n.members))
}

// Member returns id's entry, or nil when no node with that ID is attached.
func (n *Network) Member(id mutex.ID) *Member {
	if id < 0 || int(id) >= len(n.index) || n.index[id] == 0 {
		return nil
	}
	return &n.members[n.index[id]-1]
}

// Now returns the current virtual time.
func (n *Network) Now() Time { return Time(n.clk.Elapsed()) }

// payload is what one pending event carries: a step when step is set,
// otherwise a message delivery — the message in v when it was sent by
// value and in m otherwise. A step reads step, from and to; a delivery
// every field but step.
type payload struct {
	step     func(a, b mutex.ID)
	from, to mutex.ID
	sentAt   Time
	m        mutex.Message
	v        core.Msg
}

// arm schedules an event d from now on the clock's timeline (a negative d
// fires at once, like a timer's) and returns its payload, at the slot the
// clock gave it, for the caller to fill in: a fired event's payload keeps
// no reference, and the caller sets every field the event reads.
func (n *Network) arm(d Time) *payload {
	s := n.clk.ArmSlot(time.Duration(d), n.fire)
	if int(s) >= len(n.pending) {
		n.fitPending()
	}
	return &n.pending[s]
}

// run fires the event that held slot s: it takes the payload out, then
// runs the step or delivers — in that order, so the sends it makes can
// already reuse the slot.
func (n *Network) run(s uint32) {
	p := &n.pending[s]
	step, from, to, sentAt, m, v := p.step, p.from, p.to, p.sentAt, p.m, p.v
	p.step, p.m = nil, nil
	if len(n.pending) > n.clk.Slots() {
		n.fitPending()
	}
	if step != nil {
		step(from, to)
	} else {
		n.deliver(from, to, sentAt, m, v)
	}
}

// fitPending resizes the payload table to the clock's slot table, which
// has grown or shrunk. A shrunk table drops only free slots, whose
// payloads hold no reference.
func (n *Network) fitPending() {
	pending := make([]payload, n.clk.Slots())
	copy(pending, n.pending)
	n.pending = pending
}

// After arms step(a, b) to run d from now: how the layers above put
// driver steps, auto-releases and detector verdicts on the timeline. Pass
// a func value bound once, so arming allocates nothing.
func (n *Network) After(d Time, step func(a, b mutex.ID), a, b mutex.ID) {
	p := n.arm(d)
	p.step, p.from, p.to = step, a, b
}

// Send queues m for delivery from -> to after the latency model's delay,
// preserving per-link FIFO order. Sends between unknown nodes panic:
// under the paper's model the membership is fixed, so they are bugs.
func (n *Network) Send(from, to mutex.ID, m mutex.Message) { n.send(from, to, m, core.Msg{}) }

// SendMsg is Send for a REQUEST or PRIVILEGE carried by value: it waits
// in the pending table as a plain core.Msg and reaches a node that has
// DeliverMsg without ever becoming a heap object.
func (n *Network) SendMsg(from, to mutex.ID, v core.Msg) { n.send(from, to, nil, v) }

// send schedules the delivery of one message — v when it has a kind, m
// otherwise. The message is counted as sent first; then the fault state
// or the drop rule may cut it; only then is the delay drawn.
func (n *Network) send(from, to mutex.ID, m mutex.Message, v core.Msg) {
	src, dst := n.Member(from), n.Member(to)
	if src == nil || dst == nil {
		panic(fmt.Sprintf("sim: send between unknown nodes %d -> %d", from, to))
	}
	if v.Kind != core.MsgNone {
		n.sentByVal[v.Kind]++
	} else {
		n.countSend(m.Kind(), m.Size())
	}
	cut := src.Down || src.Side != dst.Side
	if !cut && n.drop != nil {
		if m == nil {
			m, v = v.Boxed(), core.Msg{}
		}
		cut = n.drop(from, to, m)
	}
	if cut {
		n.counts.Dropped++
		return
	}
	now := n.Now()
	at := now + n.lat(from, to)
	if n.fifo {
		at = src.clamp(to, now, at)
	}
	p := n.arm(at - now)
	p.from, p.to, p.sentAt, p.m, p.v = from, to, now, m, v
}

// clamp returns the arrival time for a message sent now to member to
// that would otherwise arrive at at: pushed just past the link's
// previous arrival if the latency model drew it earlier. The sender's
// list is compacted on the way: an entry whose message arrived before
// now can never clamp again, because no later send arrives before now.
func (s *Member) clamp(to mutex.ID, now, at Time) Time {
	if f := s.far; f != nil {
		if prev, ok := f.at[to]; ok && at <= prev {
			at = prev + 1
		}
		if f.at[to] = at; len(f.at) >= f.sweepAt {
			maps.DeleteFunc(f.at, func(_ mutex.ID, t Time) bool { return t < now })
			f.sweepAt = 2 * max(len(f.at), maxLinks)
		}
		return at
	}
	links := s.links
	k := 0
	for _, l := range links {
		switch {
		case l.to == to:
			if at <= l.at {
				at = l.at + 1
			}
		case l.at >= now:
			links[k] = l
			k++
		}
	}
	s.links = append(links[:k], linkClamp{to: to, at: at})
	if len(s.links) > maxLinks {
		s.far = &farClamp{at: make(map[mutex.ID]Time, 2*len(s.links)), sweepAt: 4 * maxLinks}
		for _, l := range s.links {
			s.far.at[l.to] = l.at
		}
		s.links = nil
	}
	return at
}

// deliver hands the message to its destination — by value when it was
// sent that way and the node can take it — unless the destination
// crashed while the message was in flight.
func (n *Network) deliver(from, to mutex.ID, sentAt Time, m mutex.Message, v core.Msg) {
	dst := n.Member(to)
	if dst.Down {
		n.counts.Dropped++
		return
	}
	n.counts.Delivered++
	if v.Kind != core.MsgNone && (dst.byVal == nil || n.observe != nil) {
		m, v = v.Boxed(), core.Msg{}
	}
	if n.observe != nil {
		n.observe(Delivery{SentAt: sentAt, DeliverAt: n.Now(), From: from, To: to, Msg: m})
	}
	var err error
	if v.Kind != core.MsgNone {
		err = dst.byVal.DeliverMsg(from, v)
	} else {
		err = dst.Node.Deliver(from, m)
	}
	if err != nil && n.err == nil {
		kind := v.Kind.String()
		if m != nil {
			kind = m.Kind()
		}
		n.err = fmt.Errorf("deliver %s %d->%d at t=%d: %w", kind, from, to, n.Now(), err)
	}
}

// countSend counts one boxed send in its kind's slot. A run sends a
// handful of kinds, so the slot is found by a scan, and the send writes
// no map.
func (n *Network) countSend(kind string, size int) {
	for i := range n.sent {
		if k := &n.sent[i]; k.kind == kind {
			k.sent++
			k.bytes += int64(size + mutex.KindSize)
			k.maxSize = max(k.maxSize, size)
			return
		}
	}
	n.sent = append(n.sent, kindCount{kind: kind, sent: 1, bytes: int64(size + mutex.KindSize), maxSize: size})
}

// Counts returns a snapshot of the traffic statistics so far.
func (n *Network) Counts() Counts {
	c := n.counts
	c.ByKind, c.MaxSizeByKind = make(map[string]int64), make(map[string]int)
	for _, k := range n.sent {
		c.Messages += k.sent
		c.Bytes += k.bytes
		c.ByKind[k.kind] += k.sent
		c.MaxSizeByKind[k.kind] = max(c.MaxSizeByKind[k.kind], k.maxSize)
	}
	for k, sent := range n.sentByVal {
		if sent > 0 {
			m := core.Msg{Kind: core.MsgKind(k)}.Boxed()
			c.add(m.Kind(), m.Size(), sent)
		}
	}
	return c
}

// Err returns the first error a node's Deliver handler raised. A correct
// protocol under the paper's assumptions never produces one.
func (n *Network) Err() error { return n.err }
