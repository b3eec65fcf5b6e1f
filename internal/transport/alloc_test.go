package transport

import (
	"context"
	"io"
	"net"
	"testing"
	"time"

	"dagmutex/internal/core"
	"dagmutex/internal/mutex"
	"dagmutex/internal/runtime"
	"dagmutex/internal/telemetry"
	"dagmutex/internal/topology"
)

// TestAllocBudgetLocalSteadyState pins the uncontended grant hot path
// at zero heap allocations: a holder's acquire→grant→release cycle on
// the in-process substrate touches no messages, pools every buffer it
// would need, and signals the grant over a pre-allocated channel.
// AllocsPerRun counts process-wide mallocs, so the budget also proves
// no background goroutine allocates on the steady state's behalf.
func TestAllocBudgetLocalSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	l, err := NewLocal(core.Builder, dagConfig(topology.Line(2), 1))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	h := l.Session(1)
	ctx := context.Background()

	cycle := func() {
		if _, err := h.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
		if err := h.Release(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm up lazy initialization outside the measured window

	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("local steady-state acquire/release = %.2f allocs/op, want 0", avg)
	}
}

// TestAllocBudgetTracedSteadyState pins the same steady-state cycle at
// zero heap allocations with live telemetry attached: the node's one
// observer, mapping every traced event to telemetry and feeding real
// registry instruments (a counter and a histogram, the
// exact instruments the lock service's per-shard observer drives).
// Turning observability on must not put allocations back on the grant
// hot path — the events are built from registers and passed by value,
// and the instruments are wait-free atomics.
func TestAllocBudgetTracedSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	reg := telemetry.NewRegistry()
	grants := reg.Counter("grants")
	fences := reg.Histogram("fences", telemetry.Units)
	builder := func(id mutex.ID, env mutex.Env, cfg mutex.Config) (mutex.Node, error) {
		return core.New(id, env, cfg, core.WithObserver(core.TracedEvents, func(e core.Event) {
			if t := e.Trace(); t.Kind == telemetry.TraceGrant {
				grants.Inc()
				fences.Observe(int64(t.Fence))
			}
		}))
	}
	l, err := NewLocal(builder, dagConfig(topology.Line(2), 1))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	h := l.Session(1)
	ctx := context.Background()

	cycle := func() {
		if _, err := h.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
		if err := h.Release(); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm up lazy initialization outside the measured window

	before := grants.Value()
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("traced steady-state acquire/release = %.2f allocs/op, want 0", avg)
	}
	// The budget only means something if the observer actually fired on
	// every measured grant.
	if got := grants.Value() - before; got < 1000 {
		t.Fatalf("observer saw %d grants during the measured window, want >= 1000", got)
	}
}

// TestAllocBudgetClientRespond pins the member→client response path at
// zero heap allocations: a grant (or a shed) response is encoded into a
// pooled frame buffer and written — inline when the connection is idle,
// via the batched drain writer otherwise — without allocating anything
// in the steady state. This is the path every dialed client's every
// response takes, so at thousands of clients it must not produce
// per-response garbage; the shed path in particular is exercised at the
// full offered rate when admission control is rejecting.
func TestAllocBudgetClientRespond(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	srv, cli := net.Pipe()
	defer func() { _ = srv.Close() }()
	defer func() { _ = cli.Close() }()
	go func() { _, _ = io.Copy(io.Discard, cli) }()
	adm := newAdmission(ClientQueue{})
	out := startFrameWriter(srv, &adm.writes)
	cc := &clientConn{out: out, adm: adm}

	var payload [16]byte
	grant := func() { cc.respond(RespGrant, 7, payload[:]) }
	shed := func() { cc.respondErr(9, ErrClientBusy) }
	grant() // warm the frame pool outside the measured window
	shed()

	if avg := testing.AllocsPerRun(1000, grant); avg != 0 {
		t.Errorf("grant response encode/write = %.2f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, shed); avg != 0 {
		t.Errorf("shed response encode/write = %.2f allocs/op, want 0", avg)
	}
	// One sender never finds the connection busy: every frame is counted,
	// each in a write call of its own.
	if frames, batches := adm.writes.frames.Load(), adm.writes.batches.Load(); frames < 2002 || batches != frames {
		t.Errorf("write counters: %d frames in %d write calls, want >= 2002 frames, one call each", frames, batches)
	}
	_ = srv.Close()
	out.Shutdown()
}

// TestAllocBudgetTCPHandoff pins the pipelined cross-node handoff over
// real loopback sockets — the production grant path under contention —
// at zero heap allocations: the holder's ReleaseRequest fuses its
// re-request onto the outgoing PRIVILEGE, so each op moves exactly one
// message, and that message is never a heap object. core hands it to the
// runtime's Env by value (core.MsgSender), the link encodes it straight
// into a pooled frame, the reader decodes it by value into the envelope
// (MsgCodec) and the runtime delivers it through core's by-value method;
// the frames, their buffers and the writev batches are all pooled. What
// used to remain here — one interface boxing at Env.Send, one at
// Codec.Decode — is gone.
func TestAllocBudgetTCPHandoff(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP handoff loop is slow under -short")
	}
	c, err := NewTCPCluster(core.Builder, dagConfig(topology.Line(2), 1), DAGCodec{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	allocBudgetHandoff(t, "tcp", [2]*runtime.Session{c.Session(1), c.Session(2)})
}

// TestAllocBudgetLocalHandoff is the same pipelined two-node step over
// the in-process substrate: the envelope carries the message by value
// through the mailbox, so a token that moves costs no heap object there
// either.
func TestAllocBudgetLocalHandoff(t *testing.T) {
	l, err := NewLocal(core.Builder, dagConfig(topology.Line(2), 1))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	allocBudgetHandoff(t, "local", [2]*runtime.Session{l.Session(1), l.Session(2)})
}

// TestAllocBudgetOverlappingTurns pins a link's noted peers at zero heap
// allocations when turns overlap: a turn notes the peers it sends to
// while the previous turn's flush has taken one of them and not the
// other, and every noted peer is taken exactly once. The list is shared
// and reused, so no turn allocates one of its own.
func TestAllocBudgetOverlappingTurns(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	l, a, b := &tcpLink{}, newPeerConn(), newPeerConn()
	taken := 0
	overlap := func() {
		l.note(a) // turn 1 sends to both peers
		l.note(b)
		first := l.take() // its flush takes one and is writing it...
		l.note(b)         // ...while turn 2 sends to both
		l.note(first)
		for taken = 1; l.take() != nil; taken++ {
		}
	}
	overlap() // grow the link's list outside the measured window
	if avg := testing.AllocsPerRun(1000, overlap); avg != 0 {
		t.Fatalf("overlapping turns = %.2f allocs/op, want 0", avg)
	}
	if taken != 3 {
		t.Fatalf("two overlapping turns over two peers took %d peers, want 3 (one per note made after a take)", taken)
	}
}

// allocBudgetHandoff bootstraps a two-node pipeline over sessions
// (member 1 holds the token initially) and requires the steady-state
// step — the holder's fused ReleaseRequest, the peer's Await — to
// allocate nothing.
func allocBudgetHandoff(t *testing.T, substrate string, sessions [2]*runtime.Session) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are inflated by race instrumentation")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Bootstrap the pipeline: node 1 takes the token, node 2 queues
	// behind it, then node 1's fused release both grants node 2 and
	// leaves node 1's next request outstanding. Node 2's REQUEST races
	// node 1's release over the wire, and a release with no recorded
	// waiter re-grants node 1 itself — so drain that self-grant and
	// retry until the handoff actually crosses. (The measured steady
	// state has no such race: the fused PRIVILEGE records the peer's
	// next request before the grant is ever deposited.)
	if _, err := sessions[0].Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() {
		_, err := sessions[1].Acquire(ctx)
		acquired <- err
	}()
bootstrap:
	for {
		if err := sessions[0].ReleaseRequest(); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-acquired:
			if err != nil {
				t.Fatal(err)
			}
			break bootstrap
		case <-sessions[0].Granted():
			time.Sleep(time.Millisecond) // let node 2's REQUEST land
		case <-ctx.Done():
			t.Fatal(ctx.Err())
		}
	}

	holder := 1
	step := func() {
		if err := sessions[holder].ReleaseRequest(); err != nil {
			t.Fatal(err)
		}
		holder = 1 - holder
		if _, err := sessions[holder].Await(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		step() // settle connections, pools and goroutine stacks
	}

	avg := testing.AllocsPerRun(1000, step)
	t.Logf("pipelined %s handoff: %.2f allocs/op", substrate, avg)
	if avg != 0 {
		t.Fatalf("pipelined %s handoff = %.2f allocs/op, want 0", substrate, avg)
	}

	// Unwind the pipeline so Close sees no one mid-section: the holder
	// releases for good, the other side's outstanding request is served,
	// and it releases too.
	if err := sessions[holder].Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := sessions[1-holder].Await(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sessions[1-holder].Release(); err != nil {
		t.Fatal(err)
	}
}
