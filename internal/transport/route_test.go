package transport

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dagmutex/internal/core"
	"dagmutex/internal/failure"
	"dagmutex/internal/mutex"
	"dagmutex/internal/runtime"
	"dagmutex/internal/telemetry"
	"dagmutex/internal/topology"
)

// This file covers the two message routes over real links: REQUEST and
// PRIVILEGE travel by value wherever every piece on the way has the
// capability (core.MsgSender on the Env, DeliverMsg on the node,
// runtime.MsgLink on the link, MsgCodec on the codec), and anything that
// lacks one — on purpose, like bench's timing shims — still sees them
// boxed, as core.Request / core.Privilege values, in the same cluster.

// protocolNode is mutex.Node plus the five optional protocol
// capabilities — everything bench's nodeShim forwards, and nothing else.
type protocolNode interface {
	mutex.Node
	mutex.TryRequester
	mutex.ReleaseRequester
	mutex.Regranter
	mutex.Reorienter
	mutex.MembershipHandler
}

// boxedNode wraps a node so it lacks the by-value delivery method (an
// embedded interface promotes only the interface's methods) and counts
// what its Deliver is handed, by dynamic type.
type boxedNode struct {
	protocolNode
	seen *deliveries
}

type deliveries struct {
	requests, privileges, other, foreign atomic.Int64
}

func (n boxedNode) Deliver(from mutex.ID, m mutex.Message) error {
	// The exact assertion bench/trace.go makes: the hot messages arrive
	// as struct values, not pointers and not the by-value union.
	switch m.(type) {
	case core.Request:
		n.seen.requests.Add(1)
	case core.Privilege:
		n.seen.privileges.Add(1)
	case core.Probe, core.ProbeAck, core.Reorient, core.Join, core.Welcome, core.Initialize:
		n.seen.other.Add(1)
	default:
		n.seen.foreign.Add(1)
	}
	return n.protocolNode.Deliver(from, m)
}

// boxedEnv hides every optional capability of the Env it wraps,
// core.MsgSender included.
type boxedEnv struct{ mutex.Env }

// boxedBuilder builds core nodes on the boxed route — wrapped node, Env
// without the send capability — for the members in wrap, and plain
// core nodes for the rest.
func boxedBuilder(seen *deliveries, wrap ...mutex.ID) mutex.Builder {
	return func(id mutex.ID, env mutex.Env, cfg mutex.Config) (mutex.Node, error) {
		for _, w := range wrap {
			if w == id {
				n, err := core.New(id, boxedEnv{env}, cfg)
				if err != nil {
					return nil, err
				}
				return boxedNode{protocolNode: n, seen: seen}, nil
			}
		}
		return core.New(id, env, cfg)
	}
}

// plainCodec exposes only Codec's three methods of the codec it wraps.
type plainCodec struct{ Codec }

// routeCluster is what the fallback battery needs of either substrate.
type routeCluster interface {
	Session(id mutex.ID) *Session
	Err() error
	Close()
}

// contend has every member take the critical section rounds times,
// concurrently, and checks mutual exclusion and the grant count.
func contend(t *testing.T, c routeCluster, ids []mutex.ID, rounds int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var inCS, grants atomic.Int64
	var wg sync.WaitGroup
	for _, id := range ids {
		s := c.Session(id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := s.Acquire(ctx); err != nil {
					t.Errorf("node %d acquire: %v", s.ID(), err)
					return
				}
				if inCS.Add(1) != 1 {
					t.Errorf("node %d entered an occupied critical section", s.ID())
				}
				grants.Add(1)
				inCS.Add(-1)
				if err := s.Release(); err != nil {
					t.Errorf("node %d release: %v", s.ID(), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := c.Err(); err != nil {
		t.Fatalf("cluster error: %v", err)
	}
	if got, want := grants.Load(), int64(len(ids)*rounds); got != want {
		t.Fatalf("%d grants, want %d", got, want)
	}
}

// TestBoxedRouteFallbacks: members built the way bench builds them — no
// by-value method on the node, no send capability on the Env — still
// grant over both substrates, alone and mixed with plain members, and
// their Deliver sees REQUEST and PRIVILEGE as core value types even when
// the sender put them on the wire (or in the mailbox) by value.
func TestBoxedRouteFallbacks(t *testing.T) {
	cfg := dagConfig(topology.Star(3), 1)
	for _, tc := range []struct {
		name string
		wrap []mutex.ID
	}{
		{"every member boxed", []mutex.ID{1, 2, 3}},
		{"one boxed member among plain ones", []mutex.ID{2}},
	} {
		for _, substrate := range []string{"local", "tcp"} {
			t.Run(tc.name+"/"+substrate, func(t *testing.T) {
				seen := &deliveries{}
				var c routeCluster
				var err error
				if substrate == "local" {
					c, err = NewLocal(boxedBuilder(seen, tc.wrap...), cfg)
				} else {
					c, err = NewTCPCluster(boxedBuilder(seen, tc.wrap...), cfg, DAGCodec{})
				}
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				// A boxed member takes the token (a PRIVILEGE reaches it)
				// and keeps it until a plain-or-boxed peer's REQUEST has
				// reached it too; then everybody contends.
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if _, err := c.Session(2).Acquire(ctx); err != nil {
					t.Fatal(err)
				}
				asked := make(chan error, 1)
				go func() { asked <- acquireErr(c.Session(3), ctx) }()
				for seen.requests.Load() == 0 {
					if ctx.Err() != nil {
						t.Fatal("member 3's REQUEST never reached the boxed holder")
					}
					time.Sleep(time.Millisecond)
				}
				if err := c.Session(2).Release(); err != nil {
					t.Fatal(err)
				}
				if err := <-asked; err != nil {
					t.Fatal(err)
				}
				if err := c.Session(3).Release(); err != nil {
					t.Fatal(err)
				}
				contend(t, c, cfg.IDs, 20)
				if seen.requests.Load() == 0 || seen.privileges.Load() == 0 {
					t.Fatalf("boxed members saw %d core.Request and %d core.Privilege values, want both > 0",
						seen.requests.Load(), seen.privileges.Load())
				}
				if n := seen.foreign.Load(); n != 0 {
					t.Fatalf("boxed members were handed %d messages of a type they do not know", n)
				}
			})
		}
	}
}

// TestBoxedCodecHostInteroperates: a TCP host whose codec lacks MsgCodec
// boxes its by-value sends into AppendEncode and decodes everything
// through Decode; the bytes are the same, so it shares a cluster with
// hosts that do neither.
func TestBoxedCodecHostInteroperates(t *testing.T) {
	cfg := dagConfig(topology.Line(3), 1)
	nodes := make(tcpNodes)
	addrs := make(map[mutex.ID]string)
	defer nodes.Close()
	for _, id := range cfg.IDs {
		var codec Codec = DAGCodec{}
		if id == 2 { // the middle of the line: every grant crosses it
			codec = plainCodec{DAGCodec{}}
		}
		n, err := NewTCPNode(id, core.Builder, cfg, codec)
		if err != nil {
			t.Fatal(err)
		}
		nodes[id] = n
		addrs[id] = n.Addr()
	}
	if nodes[2].Host().msgCodec != nil || nodes[1].Host().msgCodec == nil {
		t.Fatal("setup: capability probe did not tell the two codecs apart")
	}
	for _, n := range nodes {
		n.Connect(addrs)
	}
	contend(t, nodes, cfg.IDs, 20)
}

type tcpNodes map[mutex.ID]*TCPNode

func (c tcpNodes) Session(id mutex.ID) *Session { return c[id].Session() }
func (c tcpNodes) Close() {
	for _, n := range c {
		n.Close()
	}
}
func (c tcpNodes) Err() error {
	for _, n := range c {
		if err := n.Err(); err != nil {
			return err
		}
	}
	return nil
}

// countingMonitor counts Inbound calls and how many carried no message.
type countingMonitor struct{ calls, nilMsg atomic.Int64 }

func (m *countingMonitor) Inbound(_ mutex.ID, msg mutex.Message) bool {
	m.calls.Add(1)
	if msg == nil {
		m.nilMsg.Add(1)
	}
	return false
}

// TestMonitorSeesEveryEnvelopeOnBothRoutes: the inbound monitor fires
// exactly once per delivered envelope whichever route carried it — with
// the boxed message on the boxed route and with nil, unboxed, on the
// by-value one.
func TestMonitorSeesEveryEnvelopeOnBothRoutes(t *testing.T) {
	cfg := dagConfig(topology.Line(2), 1)
	for _, tc := range []struct {
		name    string
		b       mutex.Builder
		wantNil bool
	}{
		{"by value", core.Builder, true},
		{"boxed", boxedBuilder(&deliveries{}, 1, 2), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := NewLocal(tc.b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			mon := &countingMonitor{}
			for _, n := range l.nodes {
				n.SetMonitor(mon)
			}
			// Sequential turns: when the last Release returns, every
			// message sent has been delivered.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for i := 0; i < 50; i++ {
				s := l.Session(mutex.ID(1 + i%2))
				if _, err := s.Acquire(ctx); err != nil {
					t.Fatal(err)
				}
				if err := s.Release(); err != nil {
					t.Fatal(err)
				}
			}
			msgs := l.Messages()
			if msgs == 0 || mon.calls.Load() != msgs {
				t.Fatalf("monitor saw %d envelopes, %d messages were delivered", mon.calls.Load(), msgs)
			}
			wantNil := int64(0)
			if tc.wantNil {
				wantNil = msgs
			}
			if got := mon.nilMsg.Load(); got != wantNil {
				t.Fatalf("%d of %d envelopes showed the monitor a nil message, want %d", got, msgs, wantNil)
			}
		})
	}
}

// quietDetection is a detector tuning under which nothing but a test's
// own traffic can change a verdict: no heartbeat and no suspicion
// timeout fires within a test's lifetime.
var quietDetection = failure.Config{Heartbeat: time.Hour, SuspectAfter: 24 * time.Hour}

// TestByValueRequestAloneRevivesPeer: over TCP every inbound frame is
// liveness evidence, by-value ones included — a peer the detector holds
// down comes back on the strength of one REQUEST, with no heartbeat
// anywhere (member 1 runs no detector, so it sends none).
func TestByValueRequestAloneRevivesPeer(t *testing.T) {
	c, err := NewTCPCluster(core.Builder, dagConfig(topology.Line(2), 2), DAGCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	host := c.nodes[2].Host()
	host.EnableFailureDetection(quietDetection, []mutex.ID{1, 2})
	det := host.Detector()
	det.MarkDown(1)
	if down := det.Down(); len(down) != 1 || down[0] != 1 {
		t.Fatalf("setup: Down() = %v, want [1]", down)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Member 1's REQUEST(1,1) reaches member 2, the idle holder.
	if _, err := c.Session(1).Acquire(ctx); err != nil {
		t.Fatalf("acquire through the revived link: %v", err)
	}
	if down := det.Down(); len(down) != 0 {
		t.Fatalf("peer still down after its REQUEST was delivered: %v", down)
	}
	if err := c.Session(1).Release(); err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestReceiveSideLossDropsByValueFrames: the receive-side fault plan
// sits in front of both routes — a by-value REQUEST that arrives over a
// severed link is counted as received and goes no further.
func TestReceiveSideLossDropsByValueFrames(t *testing.T) {
	c, err := NewTCPCluster(core.Builder, dagConfig(topology.Line(2), 2), DAGCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Only the receiver consults the plan, so member 1 still sends.
	inj := failure.NewInjector()
	inj.Sever(1, 2)
	c.nodes[2].Host().SetInjector(inj)

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := c.Session(1).Acquire(ctx); err == nil {
		t.Fatal("acquired although the holder drops everything member 1 sends")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, received := c.nodes[2].Host().Stats(); received >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the REQUEST never reached member 2's reader")
		}
		time.Sleep(time.Millisecond)
	}
	if s := c.nodes[2].snapshot(t); !s.Holding || s.Next != mutex.Nil {
		t.Fatalf("the dropped REQUEST reached the protocol: %+v", s)
	}
	// Injected loss is not an error: the cluster is simply left with
	// member 1 still waiting.
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// snapshot reads the hosted core node's control state.
func (t *TCPNode) snapshot(tb testing.TB) core.Snapshot {
	tb.Helper()
	var s core.Snapshot
	if err := t.WithNode(func(n mutex.Node) error {
		s = n.(*core.Node).Snapshot()
		return nil
	}); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestLinkWriteCountersBatchByValueSends: the member links count their
// frames and write calls, TCPHost.Register exports them beside the
// host's client counters, and by-value sends park on the same per-turn
// batch as boxed ones — two of them to one peer in one handler turn
// leave in one write.
func TestLinkWriteCountersBatchByValueSends(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds write frame by frame (peerConn.writev), so frames == writes by construction")
	}
	c, err := NewTCPCluster(core.Builder, dagConfig(topology.Line(2), 1), DAGCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// One travelling grant: member 2's link is dialed and has written.
	if _, err := c.Session(2).Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Session(2).Release(); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	host := c.nodes[2].Host()
	host.Register(reg)
	before := scrape(t, reg)
	sent, _ := host.Stats()
	frames, writes := before["dagmutex_link_frames_total"], before["dagmutex_link_writes_total"]
	if frames != float64(sent) || frames == 0 || writes == 0 || writes > frames {
		t.Fatalf("link counters: %v frames in %v writes, host sent %d", frames, writes, sent)
	}
	if got, ok := before["dagmutex_client_admitted_total"]; !ok || got != 0 {
		t.Fatalf("client admissions = %v (exported: %v) on a host no client has dialed", got, ok)
	}

	// The protocol has no handler turn left that sends one peer two
	// frames (the fused release made the last one a single frame), so
	// park two on the link by hand. Their epoch is ahead of member 1's:
	// it drops both and answers the first with a JOIN that member 2, at
	// epoch 0, ignores.
	link := host.links[0]
	for i := 0; i < 2; i++ {
		if err := link.SendMsg(1, core.RequestMsg(core.Request{From: 2, Origin: 2, Epoch: 99})); err != nil {
			t.Fatal(err)
		}
	}
	link.Flush()
	// Written inline when the connection was idle, by the writer goroutine
	// a moment later when it was not — one write call either way.
	deadline := time.Now().Add(5 * time.Second)
	for {
		after := scrape(t, reg)
		df, dw := after["dagmutex_link_frames_total"]-frames, after["dagmutex_link_writes_total"]-writes
		if df == 2 && dw == 1 {
			return
		}
		if df > 2 || dw > 1 || time.Now().After(deadline) {
			t.Fatalf("a two-frame turn added %v frames in %v writes, want 2 in 1", df, dw)
		}
		time.Sleep(time.Millisecond)
	}
}

var _ runtime.MsgLink = (*tcpLink)(nil)
var _ runtime.MsgLink = localLink{}
