package gateway

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
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
	"dagmutex/internal/telemetry"
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

	// Resource "" routes to members[route("")] for the gateway's first
	// connection, by the S it learned from its first member; kill exactly
	// that member, so the walk-on is actually exercised (ids are 1-based).
	routed, _, err := front{backend: g.b}.route(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
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

	u := newBackend([]string{addr}, vclock.System()).ups[0]
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
				_, _ = conn.Write(transport.AppendClientHello(nil, 0))
				_, _ = io.Copy(io.Discard, conn)
			}()
		}
	}()
	u2 := newBackend([]string{ln2.Addr().String()}, vclock.System()).ups[0]
	u2.failures, u2.notBefore = 3, time.Now().Add(-time.Millisecond)
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

// helloOf dials addr raw and returns the shard count of its hello.
func helloOf(t *testing.T, addr string) int {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(binary.BigEndian.AppendUint32([]byte(transport.ClientMagic), transport.ClientVersion)); err != nil {
		t.Fatal(err)
	}
	shards, err := transport.ReadClientHello(conn)
	if err != nil {
		t.Fatal(err)
	}
	return shards
}

// lockServiceGateway starts a TCP lock service of shards shards on two
// members, each serving clients and counting into a registry of its own,
// and a gateway fronting both.
func lockServiceGateway(t *testing.T, shards int) (*Gateway, []*lockservice.Service) {
	t.Helper()
	services, err := lockservice.NewTCPCluster(lockservice.Config{Shards: shards, Lease: time.Minute, Telemetry: telemetry.NewRegistry()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, svc := range services {
			svc.Close()
		}
	})
	var addrs []string
	for i, svc := range services {
		if err := svc.ServeClients(mutex.ID(i + 1)); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, svc.Addr())
	}
	g, err := New(Config{Members: addrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = g.Close() })
	return g, services
}

// TestGatewayHelloNamesItsMembersShards: a gateway's hello names the S its
// members named — a plain member's 1, a lock service's shard count —
// learned before the hello of a client that arrives first; with no
// member reachable it names 0, and its clients take no runs.
func TestGatewayHelloNamesItsMembersShards(t *testing.T) {
	t.Run("unreachable", func(t *testing.T) {
		g, err := New(Config{Members: []string{"127.0.0.1:1"}})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		if s := helloOf(t, g.Addr()); s != 0 {
			t.Fatalf("gateway with no reachable member names %d shards, want 0", s)
		}
	})
	t.Run("plain-members", func(t *testing.T) {
		g, _, _ := gatewayCluster(t, false, transport.ClientQueue{})
		if s := helloOf(t, g.Addr()); s != 1 {
			t.Fatalf("gateway over plain members names %d shards, want their 1", s)
		}
	})
	t.Run("lock-service", func(t *testing.T) {
		g, _ := lockServiceGateway(t, 4)
		if s := helloOf(t, g.Addr()); s != 4 {
			t.Fatalf("gateway over a 4-shard lock service names %d shards, want 4", s)
		}
	})
}

// TestGatewayPassesRunsThroughPerDomain: two connections to a gateway,
// four callers each, over sixteen keys of a lock service behind it. The
// connections keep one lane per domain and their runs are passed through
// to the domain's member: never are two callers inside one domain at
// once, fences rise strictly per domain across keys and connections, and
// both the gateway and the members count runs granted.
func TestGatewayPassesRunsThroughPerDomain(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			g, services := lockServiceGateway(t, shards)
			reg := telemetry.NewRegistry()
			g.Register(reg)
			const conns, perConn, cycles, keys = 2, 4, 100, 16
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			inside := make([]atomic.Int64, shards)
			last := make([]atomic.Uint64, shards) // written only inside the domain
			var wg sync.WaitGroup
			for i := 0; i < conns; i++ {
				c, err := client.Dial(g.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				if c.Shards() != shards {
					t.Fatalf("connection to the gateway keeps lanes for %d shards, want %d", c.Shards(), shards)
				}
				for j := 0; j < perConn; j++ {
					wg.Add(1)
					go func(caller int) {
						defer wg.Done()
						for k := 0; k < cycles; k++ {
							key := fmt.Sprintf("key-%d", (caller*5+k)%keys)
							d := transport.ShardOf(key, shards)
							h, err := c.Acquire(ctx, key)
							if err != nil {
								t.Errorf("caller %d acquire %q: %v", caller, key, err)
								return
							}
							if n := inside[d].Add(1); n != 1 {
								t.Errorf("%d callers inside domain %d at once", n, d)
							}
							if prev := last[d].Load(); h.Fence <= prev {
								t.Errorf("domain %d: fence %d for %q after %d", d, h.Fence, key, prev)
							}
							last[d].Store(h.Fence)
							inside[d].Add(-1)
							if err := c.ReleaseHold(h); err != nil {
								t.Errorf("caller %d release %q: %v", caller, key, err)
								return
							}
						}
					}(i*perConn + j)
				}
			}
			wg.Wait()
			var members float64
			for _, svc := range services {
				members += counter(t, svc.Telemetry(), "dagmutex_client_runs_total")
			}
			runs := counter(t, reg, "dagmutex_client_runs_total")
			if runs == 0 || members == 0 {
				t.Fatalf("the gateway granted %v runs and the members %v: no run was passed through", runs, members)
			}
			t.Logf("%d grants: %v runs granted by the gateway, %v by the members", conns*perConn*cycles, runs, members)
		})
	}
}

// counter reads one single-sample instrument off reg (0 when absent).
func counter(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if n, v, ok := strings.Cut(line, " "); ok && n == name {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	return 0
}

// fakeMember is a member's backend over shards lock domains that grants
// every acquire at once and every run nine fences, counting acquires of
// either kind and recording what each run release said of the next one.
// A busy one answers every try that it would wait, and counts the tries.
type fakeMember struct {
	shards int
	busy   bool

	mu       sync.Mutex
	next     uint64
	acquires int
	tries    int
	mores    []bool
}

func (m *fakeMember) Shards() int { return m.shards }

func (m *fakeMember) grant(n int) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.acquires++
	first := m.next + 1
	m.next += uint64(n)
	return first
}

func (m *fakeMember) Acquire(context.Context, string) (uint64, time.Time, error) {
	return m.grant(1), time.Time{}, nil
}

func (m *fakeMember) TryAcquire(string) (uint64, time.Time, bool, error) {
	if m.busy {
		m.mu.Lock()
		defer m.mu.Unlock()
		m.tries++
		return 0, time.Time{}, false, nil
	}
	return m.grant(1), time.Time{}, true, nil
}

func (m *fakeMember) Release(string, uint64) error { return nil }

func (m *fakeMember) AcquireRun(context.Context, string) (uint64, time.Time, int, error) {
	return m.grant(9), time.Time{}, 9, nil
}

func (m *fakeMember) ReleaseRun(_ string, _ uint64, _ int, more bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mores = append(m.mores, more)
	return nil
}

func (m *fakeMember) triesSeen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tries
}

func (m *fakeMember) seen() (acquires int, mores []bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.acquires, append([]bool(nil), m.mores...)
}

// serve starts a listener in front of m and returns its address.
func (m *fakeMember) serve(t *testing.T) string {
	t.Helper()
	l, err := transport.NewClientGateway("", m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	return l.Addr()
}

// refusedAddr is a loopback address nothing listens on.
func refusedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// TestGatewayForwardsMoreOnlyToTheRoutedMember: a run's release says
// whether the client's next acquire for the domain is on its way. The
// gateway passes that on to the domain's routed member, where the
// acquire will go too, and not to a member failover placed the run on:
// that member would hold a handoff for an acquire that never reaches it.
func TestGatewayForwardsMoreOnlyToTheRoutedMember(t *testing.T) {
	for _, tc := range []struct {
		name   string
		routed bool // the run's domain routes to the live member
	}{
		{"routed", true},
		{"failed-over", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live := &fakeMember{shards: 1}
			members := []string{live.serve(t)}
			if !tc.routed {
				// One domain routes to the first member, which is down.
				members = append([]string{refusedAddr(t)}, members...)
			}
			b := newBackend(members, vclock.System())
			defer b.close()
			f := front{backend: b}
			first, _, run, err := f.AcquireRun(context.Background(), "k")
			if err != nil || run != 9 {
				t.Fatalf("AcquireRun = (%d fences, %v), want the member's run of 9", run, err)
			}
			if err := f.ReleaseRun("k", first+uint64(run-1), run, true); err != nil {
				t.Fatal(err)
			}
			if _, mores := live.seen(); len(mores) != 1 || mores[0] != tc.routed {
				t.Fatalf("the member read run releases saying more = %v, want [%v]", mores, tc.routed)
			}
		})
	}
}

// TestGatewayPutsATryOnlyToItsDomainsMembers: a try that would wait at
// its routed member walks on to the other members its domain has to
// itself, where the domain's idle token may sit, and to no other member.
// S = 2 over 4 members: domain d has members d and d+2.
func TestGatewayPutsATryOnlyToItsDomainsMembers(t *testing.T) {
	members := make([]*fakeMember, 4)
	addrs := make([]string, len(members))
	for i := range members {
		members[i] = &fakeMember{shards: 2, busy: true}
		addrs[i] = members[i].serve(t)
	}
	b := newBackend(addrs, vclock.System())
	defer b.close()
	for _, key := range []string{"key-0", "key-1", "key-2", "key-3"} {
		d := transport.ShardOf(key, 2)
		before := make([]int, len(members))
		for i, m := range members {
			before[i] = m.triesSeen()
		}
		if _, _, ok, err := (front{backend: b}).TryAcquire(key); ok || err != nil {
			t.Fatalf("try %q = (%v, %v) with every member busy, want (false, nil)", key, ok, err)
		}
		for i, m := range members {
			want := 0
			if i%2 == d {
				want = 1
			}
			if got := m.triesSeen() - before[i]; got != want {
				t.Fatalf("try %q (domain %d) reached member %d %d times, want %d", key, d, i, got, want)
			}
		}
	}
}

// TestGatewayRefusesAMemberOfAnotherS: a lane of the gateway's clients
// hands a run for one key to a caller on another key of the domain, which
// is safe only while every member excludes exactly the domains the
// gateway named. The gateway learns S = 4 from its first member; the
// second names 1, and is refused as a failed dial: quarantined, with the
// domains routed to it failing over to the first.
func TestGatewayRefusesAMemberOfAnotherS(t *testing.T) {
	four, one := &fakeMember{shards: 4}, &fakeMember{shards: 1}
	g, err := New(Config{Members: []string{four.serve(t), one.serve(t)}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	c, err := client.Dial(g.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Shards() != 4 {
		t.Fatalf("gateway names %d shards, want the first member's 4", c.Shards())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const keys = 16
	toOne := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		if idx, _, err := (front{backend: g.b}).route(ctx, key); err != nil { // c is the first connection
			t.Fatal(err)
		} else if idx == 1 {
			toOne++
		}
		h, err := c.Acquire(ctx, key)
		if err != nil {
			t.Fatalf("acquire %q: %v", key, err)
		}
		if err := c.ReleaseHold(h); err != nil {
			t.Fatalf("release %q: %v", key, err)
		}
	}
	if toOne == 0 {
		t.Fatal("no key routes to the second member: the test checks nothing")
	}
	if n, _ := one.seen(); n != 0 {
		t.Fatalf("the member naming 1 shard was sent %d acquires", n)
	}
	if n, _ := four.seen(); n != keys {
		t.Fatalf("the member naming 4 shards granted %d of %d acquires", n, keys)
	}
	u := g.b.ups[1]
	u.mu.Lock()
	failures, conn := u.failures, u.conn
	u.mu.Unlock()
	if failures == 0 || conn != nil {
		t.Fatalf("the member naming 1 shard: %d failed dials, connection kept %v; want it refused", failures, conn != nil)
	}
}

// TestGatewayRoutesEachConnectionToOneMemberOfItsDomain pins the route:
// with D domains over M members, a domain has the members d, d+D, … below
// M to itself, and the connection's place picks one of them, for every
// resource of the domain; with D ≥ M that is member d mod M for every
// connection. A member that names no domains counts as one. The members a
// try may walk on to are exactly those the domain's connections route to.
func TestGatewayRoutesEachConnectionToOneMemberOfItsDomain(t *testing.T) {
	ctx := context.Background()
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	for _, tc := range []struct {
		shards, members int
		want            func(d, place int) int
	}{
		{0, 4, func(d, place int) int { return place % 4 }},
		{1, 4, func(d, place int) int { return place % 4 }},
		{2, 4, func(d, place int) int { return d + 2*(place%2) }},
		{3, 4, func(d, place int) int { return d }},
		{4, 2, func(d, place int) int { return d % 2 }},
		{8, 3, func(d, place int) int { return d % 3 }},
	} {
		b := newBackend(make([]string, tc.members), vclock.System())
		b.shards.Store(int32(tc.shards) + 1)
		for place := 0; place < 6; place++ {
			f := front{backend: b, place: place}
			for _, key := range keys {
				d := transport.ShardOf(key, max(tc.shards, 1))
				if got, gd, err := f.route(ctx, key); err != nil || got != tc.want(d, place) || gd != d {
					t.Fatalf("S=%d over %d members: connection %d routes %q (domain %d) to member %d of domain %d (%v), want %d",
						tc.shards, tc.members, place, key, d, got, gd, err, tc.want(d, place))
				}
			}
		}
		for d := 0; d < max(tc.shards, 1); d++ {
			routed := map[int]bool{}
			for place := 0; place < tc.members; place++ {
				routed[tc.want(d, place)] = true
			}
			for idx := 0; idx < tc.members; idx++ {
				if b.serves(idx, d) != routed[idx] {
					t.Fatalf("S=%d over %d members: serves(member %d, domain %d) = %v, want %v",
						tc.shards, tc.members, idx, d, !routed[idx], routed[idx])
				}
			}
		}
		b.close()
	}
}
