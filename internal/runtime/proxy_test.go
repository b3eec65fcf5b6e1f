package runtime_test

import (
	"context"
	"errors"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dagmutex/internal/core"
	"dagmutex/internal/mutex"
	"dagmutex/internal/runtime"
	"dagmutex/internal/topology"
	"dagmutex/internal/transport"
)

// proxyCluster starts a 3-node in-process cluster and returns a proxy
// over node 1's session with the given lease.
func proxyCluster(t *testing.T, lease time.Duration) (*runtime.Proxy, *transport.Local) {
	t.Helper()
	tree := topology.Star(3)
	cfg := mutex.Config{IDs: tree.IDs(), Holder: 1, Parent: tree.ParentsToward(1)}
	l, err := transport.NewLocal(core.Builder, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	p := runtime.NewProxy(l.Session(1), lease)
	t.Cleanup(p.Close)
	return p, l
}

// TestProxySerializesClients has many goroutines (modeling many dialed
// clients) contend through one member: mutual exclusion and strictly
// monotonic fences must hold.
func TestProxySerializesClients(t *testing.T) {
	p, _ := proxyCluster(t, -1)
	var inCS atomic.Int64
	var lastFence uint64 // written only inside the CS
	var wg sync.WaitGroup
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				fence, _, err := p.Acquire(ctx, "")
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				if got := inCS.Add(1); got != 1 {
					t.Errorf("%d clients in CS", got)
				}
				if fence <= lastFence {
					t.Errorf("fence %d not above %d", fence, lastFence)
				}
				lastFence = fence
				inCS.Add(-1)
				if err := p.Release("", fence); err != nil {
					t.Errorf("release: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestProxyLeaseExpiry checks the proxy's lease enforcement: a stuck
// client's hold is force-released, the next client proceeds under a
// higher fence, and the late release learns ErrLeaseExpired exactly
// once.
func TestProxyLeaseExpiry(t *testing.T) {
	p, _ := proxyCluster(t, 80*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	fence, expires, err := p.Acquire(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if expires.IsZero() {
		t.Fatal("leased hold carries no deadline")
	}
	// The stuck client overholds; the next acquire must succeed without
	// any release.
	fence2, _, err := p.Acquire(ctx, "")
	if err != nil {
		t.Fatalf("acquire after lease expiry: %v", err)
	}
	if fence2 <= fence {
		t.Fatalf("post-expiry fence %d not above %d", fence2, fence)
	}
	if err := p.Release("", fence); !errors.Is(err, runtime.ErrLeaseExpired) {
		t.Fatalf("late release = %v, want ErrLeaseExpired", err)
	}
	if err := p.Release("", fence); !errors.Is(err, runtime.ErrNotHeld) {
		t.Fatalf("second late release = %v, want ErrNotHeld", err)
	}
	if err := p.Release("", fence2); err != nil {
		t.Fatal(err)
	}
}

// TestProxyTryAcquire checks the no-wait path: held -> false, free with
// an idle local token -> true.
func TestProxyTryAcquire(t *testing.T) {
	p, _ := proxyCluster(t, -1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	fence, _, ok, err := p.TryAcquire("")
	if err != nil || !ok {
		t.Fatalf("try of idle token = (%v, %v), want (true, nil)", ok, err)
	}
	if _, _, ok, err := p.TryAcquire(""); err != nil || ok {
		t.Fatalf("try of held proxy = (%v, %v), want (false, nil)", ok, err)
	}
	if err := p.Release("", fence); err != nil {
		t.Fatal(err)
	}
	fence2, _, err := p.Acquire(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if fence2 <= fence {
		t.Fatalf("fence %d not above %d", fence2, fence)
	}
	if err := p.Release("", 0); err != nil { // by-name release
		t.Fatal(err)
	}
}

// TestProxyCanceledAcquireRecovers checks the abandoned-grant drain: a
// canceled acquire whose protocol request stays outstanding must not
// wedge the proxy — the grant is drained, released, and the next client
// proceeds.
func TestProxyCanceledAcquireRecovers(t *testing.T) {
	p, l := proxyCluster(t, -1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Node 2 takes the token so the proxy's acquire must wait.
	other := l.Session(2)
	if _, err := other.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	shortCtx, shortCancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer shortCancel()
	if _, _, err := p.Acquire(shortCtx, ""); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("acquire under held token = %v, want deadline exceeded", err)
	}
	if err := other.Release(); err != nil {
		t.Fatal(err)
	}
	// The orphaned grant is drained in the background; a fresh acquire
	// succeeds.
	fence, _, err := p.Acquire(ctx, "")
	if err != nil {
		t.Fatalf("acquire after canceled acquire: %v", err)
	}
	if err := p.Release("", fence); err != nil {
		t.Fatal(err)
	}
}

// TestProxyCoalescesWaiters pins the coalescing economy: a cohort of
// waiters contending through one proxy is rotated locally (Regrant) or
// by pipelined handoff (ReleaseRequest) instead of each waiter issuing
// its own DAG request, so a burst of N grants costs far fewer than N
// protocol messages. With the token resident at the proxied member and
// every handoff local, the steady state sends (almost) nothing.
func TestProxyCoalescesWaiters(t *testing.T) {
	p, l := proxyCluster(t, -1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Pull the token to the proxied member first, so the measured window
	// holds only steady-state traffic.
	fence, _, err := p.Acquire(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Release("", fence); err != nil {
		t.Fatal(err)
	}

	const clients, ops = 8, 25
	before := l.Messages()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < ops; j++ {
				fence, _, err := p.Acquire(ctx, "")
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				if err := p.Release("", fence); err != nil {
					t.Errorf("release: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	grants := int64(clients * ops)
	msgs := l.Messages() - before
	if msgs >= grants {
		t.Fatalf("%d messages for %d grants (%.2f msgs/grant): waiters are not coalesced", msgs, grants, float64(msgs)/float64(grants))
	}
}

// TestProxyOrphanedPendingAdopted churns waiters whose contexts cancel
// around the release's coalescing decision: a pipelined grant whose
// intended waiter vanished must be adopted (drained and released) so the
// token is not parked at this member forever. The proof is that another
// member can still acquire afterwards.
func TestProxyOrphanedPendingAdopted(t *testing.T) {
	p, l := proxyCluster(t, -1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < 30; i++ {
		fence, _, err := p.Acquire(ctx, "")
		if err != nil {
			t.Fatal(err)
		}
		wctx, wcancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			if f, _, err := p.Acquire(wctx, ""); err == nil {
				_ = p.Release("", f)
			}
		}()
		// Cancel the waiter somewhere around the releaser's coalescing
		// decision: before it queued, while queued, or after it claimed.
		if i%3 == 0 {
			wcancel()
		}
		time.Sleep(time.Millisecond)
		if err := p.Release("", fence); err != nil {
			t.Fatal(err)
		}
		wcancel()
		<-done
	}
	// Whatever pending grants the churn orphaned, the adopt timer must
	// hand the token on: a different member's acquire completes.
	other := l.Session(2)
	if _, err := other.Acquire(ctx); err != nil {
		t.Fatalf("other member starved after orphaned pending grants: %v", err)
	}
	if err := other.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestProxyRejectsNamedResources pins the contract: a member proxy
// arbitrates exactly one mutex.
func TestProxyRejectsNamedResources(t *testing.T) {
	p, _ := proxyCluster(t, -1)
	if _, _, err := p.Acquire(context.Background(), "named"); err == nil {
		t.Fatal("acquire of a named resource through a member proxy succeeded")
	}
}

// TestProxyAbandonedAcquireLeaksNoGoroutine: recovery of a canceled
// acquire is the sweeper's job, so nothing is left parked on a grant
// that a closed cluster will never deliver.
func TestProxyAbandonedAcquireLeaksNoGoroutine(t *testing.T) {
	base := goruntime.NumGoroutine()
	tree := topology.Star(3)
	cfg := mutex.Config{IDs: tree.IDs(), Holder: 1, Parent: tree.ParentsToward(1)}
	l, err := transport.NewLocal(core.Builder, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := runtime.NewProxy(l.Session(1), -1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := l.Session(2).Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	short, shortCancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer shortCancel()
	if _, _, err := p.Acquire(short, ""); !errors.Is(err, runtime.ErrGrantPending) {
		t.Fatalf("acquire under a held token = %v, want a pending-grant error", err)
	}
	// Node 2 never releases: the abandoned grant never arrives.
	p.Close()
	l.Close()
	for deadline := time.Now().Add(5 * time.Second); goruntime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after close, %d before the cluster started:\n%s",
				goruntime.NumGoroutine(), base, buf[:goruntime.Stack(buf, true)])
		}
	}
}
