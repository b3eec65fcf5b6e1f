package gateway

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dagmutex/internal/client"
	"dagmutex/internal/core"
	"dagmutex/internal/failure"
	"dagmutex/internal/lockservice"
	"dagmutex/internal/mutex"
	"dagmutex/internal/topology"
	"dagmutex/internal/transport"
	"dagmutex/internal/vclock"
)

// gatewayCluster starts a 3-member TCP cluster (failure detection
// armed when chaos is set) and a gateway fronting all three members.
func gatewayCluster(t *testing.T, chaos bool, q transport.ClientQueue) (*Gateway, *transport.TCPCluster, []string) {
	t.Helper()
	tree := topology.Star(3)
	cfg := mutex.Config{IDs: tree.IDs(), Holder: 1, Parent: tree.ParentsToward(1)}
	var c *transport.TCPCluster
	var err error
	if chaos {
		fcfg := failure.Config{Heartbeat: 10 * time.Millisecond, SuspectAfter: 120 * time.Millisecond}
		c, err = transport.NewTCPClusterChaos(core.Builder, cfg, transport.DAGCodec{}, fcfg, failure.NewInjector())
	} else {
		c, err = transport.NewTCPCluster(core.Builder, cfg, transport.DAGCodec{})
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	members := make([]string, 0, 3)
	for id := mutex.ID(1); id <= 3; id++ {
		members = append(members, c.Addr(id))
	}
	g, err := New(Config{Members: members, Queue: q})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = g.Close() })
	return g, c, members
}

// TestGatewaySerializesClients drives several dialed clients through
// one gateway: mutual exclusion and strictly monotonic fences must
// hold, exactly as when dialing a member directly.
func TestGatewaySerializesClients(t *testing.T) {
	g, _, _ := gatewayCluster(t, false, transport.ClientQueue{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var inCS atomic.Int64
	var lastFence uint64 // written only inside the CS
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := client.DialContext(ctx, g.Addr())
			if err != nil {
				t.Errorf("dial gateway: %v", err)
				return
			}
			defer conn.Close()
			for j := 0; j < 10; j++ {
				h, err := conn.Acquire(ctx, "")
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				if got := inCS.Add(1); got != 1 {
					t.Errorf("%d clients in CS", got)
				}
				if h.Fence <= lastFence {
					t.Errorf("fence %d not above %d", h.Fence, lastFence)
				}
				lastFence = h.Fence
				inCS.Add(-1)
				if err := conn.ReleaseHold(h); err != nil {
					t.Errorf("release: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s := g.Stats(); s.Admitted == 0 {
		t.Fatalf("gateway admitted no requests: %+v", s)
	}
}

// TestGatewaySentinels pins the error mapping end to end through the
// gateway: a release of nothing comes back as the not-held sentinel,
// exactly as when dialing a member directly.
func TestGatewaySentinels(t *testing.T) {
	g, _, _ := gatewayCluster(t, false, transport.ClientQueue{})
	conn, err := client.Dial(g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	err = conn.ReleaseHold(client.Hold{Fence: 999})
	if err == nil {
		t.Fatal("release of nothing through gateway succeeded")
	}
	// The member answers CodeNotHeld; the gateway must re-tag it so its
	// own clients decode the same sentinel.
	if !errors.Is(err, lockservice.ErrNotHeld) {
		t.Fatalf("release of nothing = %v, want ErrNotHeld", err)
	}
}

// TestGatewayShedsOverRate pins edge admission: with a tiny rate
// bucket, a burst of acquires is shed at the gateway with ErrBusy
// before any upstream traffic, and the shed counter records it.
func TestGatewayShedsOverRate(t *testing.T) {
	g, _, _ := gatewayCluster(t, false, transport.ClientQueue{Rate: 0.001, Burst: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	conn, err := client.DialContext(ctx, g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// The single burst token admits one acquire; the rest must shed.
	h, err := conn.Acquire(ctx, "")
	if err != nil {
		t.Fatalf("first acquire (burst token): %v", err)
	}
	var shed int
	for i := 0; i < 5; i++ {
		if _, err := conn.Acquire(ctx, ""); errors.Is(err, client.ErrBusy) {
			shed++
		} else if err == nil {
			t.Fatal("acquire admitted over an exhausted rate bucket")
		} else {
			t.Fatalf("acquire = %v, want ErrBusy", err)
		}
	}
	if shed != 5 {
		t.Fatalf("shed %d of 5 over-rate acquires", shed)
	}
	if s := g.Stats(); s.ShedRate < 5 {
		t.Fatalf("stats recorded %d rate sheds, want >= 5: %+v", s.ShedRate, s)
	}
	if err := conn.ReleaseHold(h); err != nil {
		t.Fatal(err)
	}
}

// TestGatewayFailsOverOnMemberKill is the gateway soak: clients keep
// acquiring through the gateway while the member their requests route
// to is killed. The gateway walks to the next member; the armed
// failure subsystem regenerates the token if it died with the victim.
func TestGatewayFailsOverOnMemberKill(t *testing.T) {
	if testing.Short() {
		t.Skip("member-kill soak is slow under -short")
	}
	g, c, _ := gatewayCluster(t, true, transport.ClientQueue{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	conn, err := client.DialContext(ctx, g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	cycle := func() error {
		h, err := conn.Acquire(ctx, "")
		if err != nil {
			return err
		}
		return conn.ReleaseHold(h)
	}
	if err := cycle(); err != nil {
		t.Fatalf("pre-kill acquire: %v", err)
	}

	// Resource "" routes to members[route("")]; kill exactly that
	// member, so the walk-on is actually exercised (ids are 1-based).
	routed := (&backend{ups: make([]*upstream, 3)}).route("")
	if err := c.Kill(mutex.ID(routed + 1)); err != nil {
		t.Fatal(err)
	}

	// The in-flight epoch may eat a few attempts while the survivors
	// excise the victim and regenerate; the gateway must converge to
	// serving again without the client reconnecting.
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := cycle()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway did not recover from member kill: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		if err := cycle(); err != nil {
			t.Fatalf("post-recovery acquire %d: %v", i, err)
		}
	}
}

// TestBackoffDelay pins the reconnect-quarantine schedule: exponential
// doubling from backoffBase, saturation at backoffCap, and jitter
// confined to the upper half of the interval.
func TestBackoffDelay(t *testing.T) {
	zero := func() float64 { return 0 }
	almostOne := func() float64 { return 0.999999 }
	for _, tc := range []struct {
		n    int
		full time.Duration
	}{
		{1, 50 * time.Millisecond},
		{2, 100 * time.Millisecond},
		{3, 200 * time.Millisecond},
		{6, 1600 * time.Millisecond},
		{7, backoffCap},  // 3200ms capped
		{10, backoffCap}, // past the shift guard
		{50, backoffCap}, // a shift here would overflow; the guard must hold
	} {
		if got, want := backoffDelay(tc.n, zero), tc.full/2; got != want {
			t.Errorf("backoffDelay(%d, 0) = %v, want %v", tc.n, got, want)
		}
		if got := backoffDelay(tc.n, almostOne); got < tc.full/2 || got >= tc.full {
			t.Errorf("backoffDelay(%d, ~1) = %v, want in [%v, %v)", tc.n, got, tc.full/2, tc.full)
		}
	}
}

// TestUpstreamQuarantineFailsFast checks the reconnect state machine on
// a member that refuses connections: the first get pays a real dial,
// the second fails fast on the quarantine without touching the network,
// and once the quarantine lapses the dial is retried (and the backoff
// doubles). A successful dial must clear the state entirely.
func TestUpstreamQuarantineFailsFast(t *testing.T) {
	// A listener opened then closed yields a loopback port that refuses
	// connections immediately.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	u := &upstream{addr: addr, clk: vclock.System()}
	ctx := context.Background()
	if _, err := u.get(ctx); err == nil {
		t.Fatal("get on refused port succeeded")
	}
	if u.failures != 1 || u.notBefore.IsZero() {
		t.Fatalf("after first failure: failures=%d notBefore=%v", u.failures, u.notBefore)
	}

	// Inside the quarantine: fail fast, no dial, failure count frozen.
	start := time.Now()
	_, err = u.get(ctx)
	if err == nil || !strings.Contains(err.Error(), "backing off") {
		t.Fatalf("quarantined get: err = %v, want backing-off error", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond {
		t.Errorf("quarantined get took %v, want fail-fast", elapsed)
	}
	if u.failures != 1 {
		t.Errorf("quarantined get bumped failures to %d", u.failures)
	}

	// After the quarantine lapses the dial is retried and the backoff
	// grows.
	u.mu.Lock()
	u.notBefore = time.Now().Add(-time.Millisecond)
	u.mu.Unlock()
	if _, err := u.get(ctx); err == nil || strings.Contains(err.Error(), "backing off") {
		t.Fatalf("post-quarantine get: err = %v, want a fresh dial error", err)
	}
	if u.failures != 2 {
		t.Errorf("after second failure: failures = %d, want 2", u.failures)
	}

	// A member that comes back clears the quarantine on the next
	// allowed dial.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	go func() {
		for {
			conn, err := ln2.Accept()
			if err != nil {
				return
			}
			// Answer the handshake with a hello, then absorb whatever
			// comes: enough for DialContext to succeed.
			go func() {
				_, _ = conn.Write(transport.AppendClientHello(nil, transport.ClientHello{}))
				_, _ = io.Copy(io.Discard, conn)
			}()
		}
	}()
	u2 := &upstream{addr: addr, clk: vclock.System(), failures: 3, notBefore: time.Now().Add(-time.Millisecond)}
	u2.addr = ln2.Addr().String()
	if _, err := u2.get(ctx); err != nil {
		t.Fatalf("get on live listener: %v", err)
	}
	if u2.failures != 0 || !u2.notBefore.IsZero() {
		t.Errorf("success did not reset quarantine: failures=%d notBefore=%v", u2.failures, u2.notBefore)
	}
	u2.mu.Lock()
	if u2.conn != nil {
		_ = u2.conn.Close()
	}
	u2.mu.Unlock()
}

// TestGatewayHelloNamesNoShards: whatever its members say, a gateway
// tells its own clients that it grants no runs (its upstream
// connections take them) and names 0 shards, so a connection to it
// keeps one lane per resource and sends every waiter's acquire.
func TestGatewayHelloNamesNoShards(t *testing.T) {
	g, err := New(Config{Members: []string{"127.0.0.1:1"}}) // dialed lazily: never, here
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	conn, err := net.Dial("tcp", g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(binary.BigEndian.AppendUint32([]byte(transport.ClientMagic), transport.ClientVersion)); err != nil {
		t.Fatal(err)
	}
	if h, err := transport.ReadClientHello(conn); err != nil || h != (transport.ClientHello{}) {
		t.Fatalf("gateway hello = (%+v, %v), want 0 shards and no runs", h, err)
	}
}
