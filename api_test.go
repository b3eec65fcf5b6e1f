//lint:file-ignore SA1019 the equivalence tests deliberately exercise the deprecated pre-v2 constructors against their Open spellings
package dagmutex_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"dagmutex"
)

// driveCluster runs a small sequential workload over every member and
// returns the message count — the deterministic fingerprint the
// deprecated-equivalence test compares.
func driveCluster(t *testing.T, c *dagmutex.Cluster) int64 {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, id := range c.Tree().IDs() {
		s := c.Session(id)
		if s == nil {
			t.Fatalf("nil session for node %d", id)
		}
		if _, err := s.Acquire(ctx); err != nil {
			t.Fatalf("node %d acquire: %v", id, err)
		}
		if err := s.Release(); err != nil {
			t.Fatalf("node %d release: %v", id, err)
		}
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return c.Messages()
}

// TestOpenOptionMatrix exercises Open across the option matrix the v2
// API composes from: substrate (local, TCP) × failure detection × INIT.
// Every combination must serve the same workload with no protocol
// error.
func TestOpenOptionMatrix(t *testing.T) {
	substrates := []struct {
		name string
		spec dagmutex.TransportSpec
	}{
		{"local", dagmutex.Local},
		{"tcp", dagmutex.TCP("")},
	}
	features := []struct {
		name string
		opts []dagmutex.Option
	}{
		{"plain", nil},
		{"chaos", []dagmutex.Option{dagmutex.WithFailureDetection(dagmutex.FailureConfig{})}},
		{"init", []dagmutex.Option{dagmutex.WithINIT()}},
		{"chaos+init", []dagmutex.Option{
			dagmutex.WithFailureDetection(dagmutex.FailureConfig{}),
			dagmutex.WithINIT(),
		}},
	}
	for _, sub := range substrates {
		for _, f := range features {
			t.Run(sub.name+"/"+f.name, func(t *testing.T) {
				t.Parallel()
				opts := append([]dagmutex.Option{dagmutex.WithTransport(sub.spec)}, f.opts...)
				c, err := dagmutex.Open(dagmutex.KAry(7, 2), 3, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				driveCluster(t, c)
			})
		}
	}
}

// TestDialRawMember is the member/client split over a plain cluster: a
// connection that is not a DAG vertex dials a member's address and
// completes Acquire→fence→Release round-trips through it.
func TestDialRawMember(t *testing.T) {
	c, err := dagmutex.Open(dagmutex.Star(3), 1, dagmutex.WithTransport(dagmutex.TCP("")))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr := c.Addr(2)
	if addr == "" {
		t.Fatal("TCP member has no address")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var clients [3]*dagmutex.RemoteSession
	for i := range clients {
		s, err := dagmutex.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		clients[i] = s
	}
	var mu sync.Mutex
	inCS := 0
	var lastGen uint64
	var wg sync.WaitGroup
	for i, s := range clients {
		wg.Add(1)
		go func(i int, s *dagmutex.RemoteSession) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				g, err := s.Acquire(ctx)
				if err != nil {
					t.Errorf("client %d acquire: %v", i, err)
					return
				}
				mu.Lock()
				inCS++
				if inCS != 1 {
					t.Errorf("%d clients in CS", inCS)
				}
				if g.Generation <= lastGen {
					t.Errorf("generation %d not above %d", g.Generation, lastGen)
				}
				lastGen = g.Generation
				if g.Expires.IsZero() {
					t.Errorf("remote grant carries no lease deadline")
				}
				inCS--
				mu.Unlock()
				if err := s.Release(); err != nil {
					t.Errorf("client %d release: %v", i, err)
					return
				}
			}
		}(i, s)
	}
	wg.Wait()
	// And the members themselves still work alongside their clients.
	if _, err := c.Session(1).Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Session(1).Release(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenLockServiceTCPServesDialedClients wires a two-member TCP lock
// service via OpenLockService and drives it from a dialed non-member
// client.
func TestOpenLockServiceTCPServesDialedClients(t *testing.T) {
	cfg := dagmutex.LockServiceConfig{Shards: 2, Nodes: 2}
	svc1, err := dagmutex.OpenLockService(cfg, dagmutex.WithTransport(dagmutex.TCP("")), dagmutex.WithMember(1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc1.Close()
	svc2, err := dagmutex.OpenLockService(cfg, dagmutex.WithTransport(dagmutex.TCP("")), dagmutex.WithMember(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	book := map[dagmutex.ID]string{1: svc1.Addr(), 2: svc2.Addr()}
	if err := svc1.Connect(book); err != nil {
		t.Fatal(err)
	}
	if err := svc2.Connect(book); err != nil {
		t.Fatal(err)
	}

	rc, err := dagmutex.DialLockService(svc1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	h, err := rc.Acquire(ctx, "account:alice")
	if err != nil {
		t.Fatal(err)
	}
	if h.Fence == 0 {
		t.Fatal("remote hold carries no fence")
	}
	if err := rc.ReleaseHold(h); err != nil {
		t.Fatal(err)
	}
	if err := rc.Release("account:alice"); !errors.Is(err, dagmutex.ErrNotHeld) {
		t.Fatalf("double release = %v, want ErrNotHeld", err)
	}
}

// TestHoldSentinelsAcrossTiers pins the one sentinel pair: ErrNotHeld
// and ErrLeaseExpired match through errors.Is whether the release came
// from a member caller, a client dialed at the member, or a client
// dialed at a gateway in front of it.
func TestHoldSentinelsAcrossTiers(t *testing.T) {
	svc, err := dagmutex.OpenLockService(
		dagmutex.LockServiceConfig{Shards: 1, Nodes: 1, Lease: 30 * time.Millisecond, SweepInterval: 2 * time.Millisecond},
		dagmutex.WithTransport(dagmutex.TCP("")), dagmutex.WithMember(1))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.Connect(map[dagmutex.ID]string{1: svc.Addr()}); err != nil {
		t.Fatal(err)
	}
	member, err := svc.On(1)
	if err != nil {
		t.Fatal(err)
	}
	dialed, err := dagmutex.DialLockService(svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dialed.Close()
	gw, err := dagmutex.OpenGateway("", []string{svc.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	viaGateway, err := dagmutex.DialLockService(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer viaGateway.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, tier := range []struct {
		name string
		c    interface {
			Acquire(context.Context, string) (dagmutex.LockHold, error)
			Release(string) error
			ReleaseHold(dagmutex.LockHold) error
		}
	}{{"member", member}, {"dialed", dialed}, {"gateway", viaGateway}} {
		t.Run(tier.name, func(t *testing.T) {
			if err := tier.c.Release("never-held"); !errors.Is(err, dagmutex.ErrNotHeld) || errors.Is(err, dagmutex.ErrLeaseExpired) {
				t.Fatalf("release of never-held = %v, want ErrNotHeld only", err)
			}
			stuck, err := tier.c.Acquire(ctx, "r")
			if err != nil {
				t.Fatal(err)
			}
			// The slot is busy until the sweeper reclaims the overheld lease.
			next, err := tier.c.Acquire(ctx, "r")
			if err != nil {
				t.Fatal(err)
			}
			if next.Fence <= stuck.Fence {
				t.Fatalf("post-expiry fence %d not above %d", next.Fence, stuck.Fence)
			}
			if err := tier.c.ReleaseHold(stuck); !errors.Is(err, dagmutex.ErrLeaseExpired) || errors.Is(err, dagmutex.ErrNotHeld) {
				t.Fatalf("late release = %v, want ErrLeaseExpired only", err)
			}
			if err := tier.c.ReleaseHold(stuck); !errors.Is(err, dagmutex.ErrNotHeld) {
				t.Fatalf("second late release = %v, want ErrNotHeld", err)
			}
			if err := tier.c.ReleaseHold(next); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOpenStartupContext pins the satellite fix: the INIT wait honors
// the caller's context instead of a hardcoded deadline.
func TestOpenStartupContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: Open must fail fast, not poll for 10s
	start := time.Now()
	_, err := dagmutex.Open(dagmutex.Star(4), 1, dagmutex.WithINIT(), dagmutex.WithStartupContext(ctx))
	if err == nil {
		// The flood may legitimately win the race against the canceled
		// context on a 4-node star; only a hang would be a bug.
		t.Skip("INIT flood completed before the canceled context was observed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("canceled startup took %v", elapsed)
	}
}

// TestOpenOptionValidation pins the loud failures for option
// combinations that cannot work.
func TestOpenOptionValidation(t *testing.T) {
	if _, err := dagmutex.OpenPeer(dagmutex.Star(3), 1, 2, dagmutex.WithINIT()); err == nil ||
		!strings.Contains(err.Error(), "WithINIT") {
		t.Fatalf("OpenPeer(WithINIT) = %v, want a WithINIT error", err)
	}
	if _, err := dagmutex.OpenLockService(dagmutex.LockServiceConfig{},
		dagmutex.WithTransport(dagmutex.TCP(""))); err == nil ||
		!strings.Contains(err.Error(), "WithMember") {
		t.Fatalf("OpenLockService(TCP) without member = %v, want a WithMember error", err)
	}
	if _, err := dagmutex.OpenLockService(dagmutex.LockServiceConfig{},
		dagmutex.WithMember(1)); err == nil ||
		!strings.Contains(err.Error(), "WithMember") {
		t.Fatalf("OpenLockService(local, WithMember) = %v, want a WithMember error", err)
	}
}

// TestWithClockVirtualLeaseExpiry drives the whole lock-service stack
// on a virtual clock through the public facade: a lease runs out only
// when the test advances the clock, deterministically, with no sleeps.
func TestWithClockVirtualLeaseExpiry(t *testing.T) {
	v := dagmutex.NewVirtualClock()
	svc, err := dagmutex.OpenLockService(
		dagmutex.LockServiceConfig{Shards: 1, Nodes: 2, Lease: 50 * time.Millisecond, SweepInterval: 5 * time.Millisecond},
		dagmutex.WithClock(v))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	h, err := svc.Acquire(ctx, "r")
	if err != nil {
		t.Fatal(err)
	}
	// Real time passing changes nothing: the lease lives on v.
	if err := svc.Release("r"); err != nil {
		t.Fatalf("release within virtual lease = %v", err)
	}
	if _, err := svc.Acquire(ctx, "r"); err != nil {
		t.Fatal(err)
	}
	v.Advance(200 * time.Millisecond) // lease out; sweeper reclaims deterministically
	if err := svc.Release("r"); !errors.Is(err, dagmutex.ErrLeaseExpired) {
		t.Fatalf("release after virtual expiry = %v, want ErrLeaseExpired", err)
	}
	_ = h
}

// TestWithClockRejectedOverTCP pins the loud failure: virtual time and
// real sockets cannot mix.
func TestWithClockRejectedOverTCP(t *testing.T) {
	v := dagmutex.NewVirtualClock()
	if _, err := dagmutex.Open(dagmutex.Star(3), 1,
		dagmutex.WithTransport(dagmutex.TCP("")), dagmutex.WithClock(v)); err == nil ||
		!strings.Contains(err.Error(), "WithClock") {
		t.Fatalf("Open(TCP, WithClock) = %v, want a WithClock error", err)
	}
	if _, err := dagmutex.OpenLockService(dagmutex.LockServiceConfig{},
		dagmutex.WithTransport(dagmutex.TCP("")), dagmutex.WithMember(1),
		dagmutex.WithClock(v)); err == nil ||
		!strings.Contains(err.Error(), "WithClock") {
		t.Fatalf("OpenLockService(TCP, WithClock) = %v, want a WithClock error", err)
	}
	if _, err := dagmutex.OpenPeer(dagmutex.Star(3), 1, 2,
		dagmutex.WithClock(v)); err == nil || !strings.Contains(err.Error(), "WithClock") {
		t.Fatalf("OpenPeer(WithClock) = %v, want a WithClock error", err)
	}
}
