package conformance

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dagmutex/internal/lockservice"
	"dagmutex/internal/mutex"
	"dagmutex/internal/runtime"
	"dagmutex/internal/transport"
)

// LiveCluster is the surface the live battery drives: the blocking
// runtime sessions plus the cluster's error and shutdown. Both link
// layers — transport.Local and transport.TCPCluster — satisfy it
// directly, because both run nodes over the one shared actor runtime.
type LiveCluster interface {
	Session(id mutex.ID) *runtime.Session
	Err() error
	Close()
}

// LockMember is one member-node client of a lock service under test —
// the surface the lease/fencing battery drives.
type LockMember interface {
	Acquire(ctx context.Context, resource string) (lockservice.Hold, error)
	Release(resource string) error
}

// Substrate describes one link layer to the live battery.
type Substrate struct {
	// Name labels subtests ("local", "tcp").
	Name string
	// New starts a live cluster for the given builder and configuration.
	New func(b mutex.Builder, cfg mutex.Config) (LiveCluster, error)
	// NewLockCluster starts a lock service with `members` member nodes
	// over this substrate and returns one client per member (index m acts
	// as member m+1) plus a teardown. cfg.Nodes and cfg.Transport are
	// overridden by the substrate.
	NewLockCluster func(cfg lockservice.Config, members int) (clients []LockMember, close func(), err error)
}

// Substrates returns the standard link layers every protocol runs
// identically over: in-process mailboxes and loopback TCP framed by
// codec. The battery's point is that the same table drives both — the
// runtime is shared, only the Link differs.
func Substrates(codec transport.Codec) []Substrate {
	return []Substrate{
		{
			Name: "local",
			New: func(b mutex.Builder, cfg mutex.Config) (LiveCluster, error) {
				return transport.NewLocal(b, cfg)
			},
			NewLockCluster: func(cfg lockservice.Config, members int) ([]LockMember, func(), error) {
				cfg.Nodes = members
				cfg.Transport = lockservice.LocalTransport{}
				svc, err := lockservice.New(cfg)
				if err != nil {
					return nil, nil, err
				}
				clients := make([]LockMember, members)
				for m := 0; m < members; m++ {
					c, err := svc.On(mutex.ID(m + 1))
					if err != nil {
						svc.Close()
						return nil, nil, err
					}
					clients[m] = c
				}
				return clients, svc.Close, nil
			},
		},
		{
			Name: "tcp",
			New: func(b mutex.Builder, cfg mutex.Config) (LiveCluster, error) {
				return transport.NewTCPCluster(b, cfg, codec)
			},
			NewLockCluster: func(cfg lockservice.Config, members int) ([]LockMember, func(), error) {
				services, err := lockservice.NewTCPCluster(cfg, members)
				if err != nil {
					return nil, nil, err
				}
				closeAll := func() {
					for _, svc := range services {
						svc.Close()
					}
				}
				clients := make([]LockMember, members)
				for m, svc := range services {
					c, err := svc.On(mutex.ID(m + 1))
					if err != nil {
						closeAll()
						return nil, nil, err
					}
					clients[m] = c
				}
				return clients, closeAll, nil
			},
		},
	}
}

// RunLive executes the live battery for protocol f over every substrate:
// real goroutines, real (or in-process) links, identical subtests. It
// complements Run, which drives the same protocols deterministically in
// the simulator. Beyond mutual exclusion and recovery, the battery
// checks the hardening layers end to end on both links: fencing tokens
// strictly monotonic under contention, and lease expiry with
// ErrLeaseExpired surfaced to the late releaser.
func RunLive(t *testing.T, f Factory, subs []Substrate) {
	t.Helper()
	for _, sub := range subs {
		sub := sub
		t.Run(sub.Name, func(t *testing.T) {
			t.Run("MutualExclusion", func(t *testing.T) { liveMutualExclusion(t, f, sub) })
			t.Run("SequentialEntries", func(t *testing.T) { liveSequentialEntries(t, f, sub) })
			t.Run("TimedOutAcquireRecovery", func(t *testing.T) { liveTimedOutRecovery(t, f, sub) })
			t.Run("FencingMonotonic", func(t *testing.T) { liveFencingMonotonic(t, f, sub) })
			if sub.NewLockCluster != nil {
				t.Run("LeaseExpiry", func(t *testing.T) { liveLeaseExpiry(t, sub) })
			}
		})
	}
}

func (f Factory) liveCluster(t *testing.T, sub Substrate, n int, holder mutex.ID) (LiveCluster, mutex.Config) {
	t.Helper()
	cfg := f.Config(n, holder)
	c, err := sub.New(f.Builder, cfg)
	if err != nil {
		t.Fatalf("start %s cluster (n=%d): %v", sub.Name, n, err)
	}
	t.Cleanup(c.Close)
	return c, cfg
}

// liveMutualExclusion hammers the cluster from every node concurrently;
// an unsynchronized counter guarded only by the protocol is the witness.
func liveMutualExclusion(t *testing.T, f Factory, sub Substrate) {
	const n, perNode = 5, 10
	c, cfg := f.liveCluster(t, sub, n, 1)
	var inCS, total atomic.Int64
	var wg sync.WaitGroup
	for _, id := range cfg.IDs {
		h := c.Session(id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			for i := 0; i < perNode; i++ {
				if _, err := h.Acquire(ctx); err != nil {
					t.Errorf("node %d acquire: %v", h.ID(), err)
					return
				}
				if got := inCS.Add(1); got != 1 {
					t.Errorf("mutual exclusion violated: %d nodes in CS", got)
				}
				total.Add(1)
				inCS.Add(-1)
				if err := h.Release(); err != nil {
					t.Errorf("node %d release: %v", h.ID(), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if got := total.Load(); got != int64(n*perNode) {
		t.Fatalf("entries = %d, want %d", got, n*perNode)
	}
}

// liveFencingMonotonic is the fencing-token acceptance check, run under
// real contention: every node hammers the cluster, and inside each
// critical section — where the protocol itself serializes execution —
// the grant's generation must strictly exceed the previous entry's. The
// same assertion runs over both substrates, so the generation survives
// the wire codec round-trip, not just the in-process path.
func liveFencingMonotonic(t *testing.T, f Factory, sub Substrate) {
	const n, perNode = 4, 8
	c, cfg := f.liveCluster(t, sub, n, 1)
	var lastGen atomic.Uint64 // written only inside the CS, so unraced
	var fenced atomic.Int64
	var wg sync.WaitGroup
	for _, id := range cfg.IDs {
		h := c.Session(id)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			for i := 0; i < perNode; i++ {
				g, err := h.Acquire(ctx)
				if err != nil {
					t.Errorf("node %d acquire: %v", h.ID(), err)
					return
				}
				if g.Generation > 0 {
					fenced.Add(1)
					if prev := lastGen.Load(); g.Generation <= prev {
						t.Errorf("node %d granted generation %d, not above previous %d",
							h.ID(), g.Generation, prev)
					}
					lastGen.Store(g.Generation)
				}
				if g.At.IsZero() {
					t.Errorf("node %d grant has zero timestamp", h.ID())
				}
				if err := h.Release(); err != nil {
					t.Errorf("node %d release: %v", h.ID(), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	// The assertion is vacuous for protocols that provide no fencing;
	// for those that do, every grant must have carried a token.
	if got := fenced.Load(); got != 0 && got != int64(n*perNode) {
		t.Fatalf("only %d of %d grants carried a fencing token", got, n*perNode)
	}
}

// liveSequentialEntries has every node enter once with no contention.
func liveSequentialEntries(t *testing.T, f Factory, sub Substrate) {
	c, cfg := f.liveCluster(t, sub, 4, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, id := range cfg.IDs {
		h := c.Session(id)
		if _, err := h.Acquire(ctx); err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
		if err := h.Release(); err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// liveTimedOutRecovery exercises the documented recovery path end to
// end: an Acquire that times out while another node holds the section
// leaves its request outstanding (the paper's model has no
// cancellation); the grant still arrives once the holder exits, the
// caller drains it via Session.Granted, releases, and the slot works
// again.
func liveTimedOutRecovery(t *testing.T, f Factory, sub Substrate) {
	c, _ := f.liveCluster(t, sub, 3, 1)
	holder, waiter := c.Session(1), c.Session(3)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	first, err := holder.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	shortCtx, shortCancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer shortCancel()
	_, err = waiter.Acquire(shortCtx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("acquire under held token = %v, want deadline exceeded", err)
	}
	if err := holder.Release(); err != nil {
		t.Fatal(err)
	}
	var late runtime.Grant
	select {
	case late = <-waiter.Granted():
	case <-ctx.Done():
		t.Fatal("late grant never arrived on Granted()")
	}
	if late.Generation > 0 && late.Generation <= first.Generation {
		t.Fatalf("late grant generation %d not above holder's %d", late.Generation, first.Generation)
	}
	if err := waiter.Release(); err != nil {
		t.Fatal(err)
	}
	// The slot is fully recovered: a fresh acquire/release cycle works.
	if _, err := waiter.Acquire(ctx); err != nil {
		t.Fatalf("reacquire after recovery: %v", err)
	}
	if err := waiter.Release(); err != nil {
		t.Fatal(err)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// liveLeaseExpiry drives the lock service's lease machinery identically
// over each substrate: a member overholds a resource past its lease; the
// shard sweeper force-releases it, a second member then acquires the
// same resource under a strictly higher fencing token, the late Release
// observes ErrLeaseExpired, and releases of never-held resources get
// ErrNotHeld.
func liveLeaseExpiry(t *testing.T, sub Substrate) {
	const resource = "leased"
	clients, closeAll, err := sub.NewLockCluster(lockservice.Config{
		Shards:        2,
		Lease:         150 * time.Millisecond,
		SweepInterval: 10 * time.Millisecond,
	}, 2)
	if err != nil {
		t.Fatalf("start %s lock cluster: %v", sub.Name, err)
	}
	defer closeAll()
	a, b := clients[0], clients[1]
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	hold, err := a.Acquire(ctx, resource)
	if err != nil {
		t.Fatal(err)
	}
	if hold.Fence == 0 {
		t.Fatal("hold carries no fencing token")
	}
	if hold.Expires.IsZero() {
		t.Fatal("hold carries no lease deadline")
	}

	// Member A goes silent past its lease; member B's acquire of the same
	// resource must succeed once the sweeper reclaims the hold — without
	// any Release from A.
	second, err := b.Acquire(ctx, resource)
	if err != nil {
		t.Fatalf("acquire after lease expiry: %v", err)
	}
	if second.Fence <= hold.Fence {
		t.Fatalf("post-expiry fence %d not above expired hold's %d", second.Fence, hold.Fence)
	}

	// A's late release is told its lease ran out, not a generic error.
	if err := a.Release(resource); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("late release = %v, want ErrLeaseExpired", err)
	}
	if err := b.Release(resource); err != nil {
		t.Fatal(err)
	}
	// And a release of something never held is distinct.
	if err := b.Release(resource); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("double release = %v, want ErrNotHeld", err)
	}
	if err := b.Release("never-acquired"); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("release of never-held resource = %v, want ErrNotHeld", err)
	}
}

// Re-exported lockservice sentinels, so protocol test packages can
// assert on the lease battery's errors without importing lockservice.
var (
	ErrLeaseExpired = lockservice.ErrLeaseExpired
	ErrNotHeld      = lockservice.ErrNotHeld
)
