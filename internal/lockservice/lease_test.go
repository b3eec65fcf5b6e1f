package lockservice

import (
	"context"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"dagmutex/internal/mutex"
	"dagmutex/internal/vclock"
)

// leaseService starts a service with a short lease and a fast sweeper on
// a virtual clock, suitable for expiry tests: the lease deadline and the
// sweeper both advance only when the test says so, so expiry is a
// deterministic event rather than a race against real sleeps.
func leaseService(t *testing.T, shards, nodes int, lease time.Duration) (*Service, *vclock.Virtual) {
	t.Helper()
	v := vclock.NewVirtual()
	s, err := New(Config{
		Shards:        shards,
		Nodes:         nodes,
		Lease:         lease,
		SweepInterval: 5 * time.Millisecond,
		Clock:         v,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		if err := s.Err(); err != nil {
			t.Errorf("protocol error after run: %v", err)
		}
	})
	return s, v
}

// TestReleaseNotHeldSentinel: the distinct ErrNotHeld sentinel surfaces
// on both the Service and the Client path, for never-held and
// wrong-resource releases alike.
func TestReleaseNotHeldSentinel(t *testing.T) {
	s := newService(t, Config{Shards: 2, Nodes: 2})
	ctx := context.Background()

	if err := s.Release("never-held"); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("service release of never-held = %v, want ErrNotHeld", err)
	}
	c, err := s.On(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Release("never-held"); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("client release of never-held = %v, want ErrNotHeld", err)
	}

	// Wrong resource through a busy slot is ErrNotHeld too.
	if _, err := c.Acquire(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Release("zz"); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("client release of wrong resource = %v, want ErrNotHeld", err)
	}
	if err := c.Release("a"); err != nil {
		t.Fatal(err)
	}
	// Double release after a clean release is ErrNotHeld, not
	// ErrLeaseExpired: the hold ended voluntarily.
	dup := c.Release("a")
	if !errors.Is(dup, ErrNotHeld) {
		t.Fatalf("double release = %v, want ErrNotHeld", dup)
	}
	if errors.Is(dup, ErrLeaseExpired) {
		t.Fatalf("double release misreported as lease expiry: %v", dup)
	}
}

// TestHoldCarriesFenceAndDeadline: every successful Acquire stamps the
// hold with the shard, member, a non-zero fencing token and a lease
// deadline derived from the configured lease.
func TestHoldCarriesFenceAndDeadline(t *testing.T) {
	s, v := leaseService(t, 2, 2, time.Minute)
	ctx := context.Background()
	before := v.Now()
	h, err := s.Acquire(ctx, "res")
	if err != nil {
		t.Fatal(err)
	}
	if h.Resource != "res" || h.Shard != s.ShardFor("res") {
		t.Fatalf("hold = %+v, want resource res on shard %d", h, s.ShardFor("res"))
	}
	if h.Fence == 0 {
		t.Fatal("hold carries no fencing token")
	}
	if h.Expires.Before(before.Add(30*time.Second)) || h.Expires.After(v.Now().Add(time.Minute)) {
		t.Fatalf("hold deadline %v not ~1 minute out", h.Expires)
	}
	if err := s.Release("res"); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseDisabled: a negative lease turns expiry off — holds carry no
// deadline and outlive any sweep interval.
func TestLeaseDisabled(t *testing.T) {
	v := vclock.NewVirtual()
	s, err := New(Config{Shards: 1, Nodes: 2, Lease: -1, SweepInterval: 5 * time.Millisecond, Clock: v})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h, err := s.Acquire(context.Background(), "r")
	if err != nil {
		t.Fatal(err)
	}
	if !h.Expires.IsZero() {
		t.Fatalf("hold deadline = %v, want zero with leases disabled", h.Expires)
	}
	v.Advance(time.Hour) // hundreds of thousands of sweeps
	if err := s.Release("r"); err != nil {
		t.Fatalf("release after sweeps = %v, want success (no expiry)", err)
	}
}

// TestLeaseExpiryForcesRelease is the unit-level version of the
// conformance battery: an overheld resource is reclaimed by the sweeper,
// a second member then acquires it under a higher fence, and the late
// Release observes ErrLeaseExpired.
func TestLeaseExpiryForcesRelease(t *testing.T) {
	s, v := leaseService(t, 1, 2, 60*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c1, err := s.On(1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.On(2)
	if err != nil {
		t.Fatal(err)
	}

	first, err := c1.Acquire(ctx, "hot")
	if err != nil {
		t.Fatal(err)
	}
	// Member 1 goes silent; the lease runs out and the sweeper reclaims
	// the hold. Member 2 then gets the resource without any Release from
	// member 1.
	advanceReclaimed(t, v, s, "hot", first)
	second, err := c2.Acquire(ctx, "hot")
	if err != nil {
		t.Fatalf("acquire after expiry: %v", err)
	}
	if second.Fence <= first.Fence {
		t.Fatalf("post-expiry fence %d not above %d", second.Fence, first.Fence)
	}
	if err := c1.Release("hot"); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("late release = %v, want ErrLeaseExpired", err)
	}
	if err := c2.Release("hot"); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.Expired != 1 {
		t.Fatalf("stats expired = %d, want 1", st.Expired)
	}
	if st.PerShard[0].Fence < second.Fence {
		t.Fatalf("shard fence stat %d below last grant %d", st.PerShard[0].Fence, second.Fence)
	}

	// The slot is fully recovered: member 1 locks again, with a fence
	// above everything granted so far.
	third, err := c1.Acquire(ctx, "hot")
	if err != nil {
		t.Fatalf("reacquire after expiry: %v", err)
	}
	if third.Fence <= second.Fence {
		t.Fatalf("reacquire fence %d not above %d", third.Fence, second.Fence)
	}
	if err := c1.Release("hot"); err != nil {
		t.Fatal(err)
	}
}

// TestCleanReleaseClearsExpiryMarker: a clean by-name release retires
// any unreported expiry marker for the same resource, so a double
// release after it is ErrNotHeld, not a stale ErrLeaseExpired.
func TestCleanReleaseClearsExpiryMarker(t *testing.T) {
	s, v := leaseService(t, 1, 2, 60*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c2, err := s.On(2)
	if err != nil {
		t.Fatal(err)
	}

	h, err := s.Acquire(ctx, "r")
	if err != nil {
		t.Fatal(err)
	}
	// Let the hold expire; prove it did by acquiring from another member,
	// then hand the resource back. The first holder never reports in.
	advanceReclaimed(t, v, s, "r", h)
	if _, err := c2.Acquire(ctx, "r"); err != nil {
		t.Fatal(err)
	}
	if err := c2.Release("r"); err != nil {
		t.Fatal(err)
	}
	// The original member re-acquires and releases cleanly: the stale
	// marker must not resurface on a double release.
	if _, err := s.Acquire(ctx, "r"); err != nil {
		t.Fatal(err)
	}
	if err := s.Release("r"); err != nil {
		t.Fatal(err)
	}
	dup := s.Release("r")
	if !errors.Is(dup, ErrNotHeld) || errors.Is(dup, ErrLeaseExpired) {
		t.Fatalf("double release after clean reacquire = %v, want ErrNotHeld (not ErrLeaseExpired)", dup)
	}
}

// TestReleaseHoldMatchesByFence: the fence-aware release identifies the
// exact hold, so an expired hold is reported ErrLeaseExpired even after
// the slot moved on to other resources (or re-held the same one), and a
// stale fence can never release somebody else's newer hold.
func TestReleaseHoldMatchesByFence(t *testing.T) {
	s, v := leaseService(t, 1, 2, 60*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c1, err := s.On(1)
	if err != nil {
		t.Fatal(err)
	}

	old, err := c1.Acquire(ctx, "r")
	if err != nil {
		t.Fatal(err)
	}
	// Let the hold expire, then re-acquire the same resource through the
	// same slot.
	advanceReclaimed(t, v, s, "r", old)
	cur, err := c1.Acquire(ctx, "r")
	if err != nil {
		t.Fatal(err)
	}
	// The stale fence cannot release the current hold...
	if err := c1.ReleaseHold(old); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("stale-fence release = %v, want ErrLeaseExpired", err)
	}
	// ...and reporting is one-shot.
	if err := c1.ReleaseHold(old); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("second stale-fence release = %v, want ErrNotHeld", err)
	}
	// The current hold is untouched by all of the above.
	if err := c1.ReleaseHold(cur); err != nil {
		t.Fatalf("current-hold release = %v, want success", err)
	}
	if err := c1.ReleaseHold(cur); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("double release of current hold = %v, want ErrNotHeld", err)
	}
}

// TestFencingMonotonicPerShardUnderContention hammers a single shard
// from every member concurrently and asserts that fences, observed in
// hold order (the token serializes them), strictly increase.
func TestFencingMonotonicPerShardUnderContention(t *testing.T) {
	const nodes, perNode = 3, 20
	s := newService(t, Config{Shards: 1, Nodes: nodes})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var mu sync.Mutex
	var fences []uint64
	var wg sync.WaitGroup
	for n := 1; n <= nodes; n++ {
		c, err := s.On(mutex.ID(n))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perNode; i++ {
				h, err := c.Acquire(ctx, "k")
				if err != nil {
					t.Errorf("node %d: %v", c.ID(), err)
					return
				}
				mu.Lock()
				fences = append(fences, h.Fence) // appended in hold order: the lock is held
				mu.Unlock()
				if err := c.Release("k"); err != nil {
					t.Errorf("node %d: %v", c.ID(), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(fences) != nodes*perNode {
		t.Fatalf("observed %d fences, want %d", len(fences), nodes*perNode)
	}
	if !sort.SliceIsSorted(fences, func(i, j int) bool { return fences[i] < fences[j] }) {
		t.Fatalf("fences not strictly increasing in hold order: %v", fences)
	}
	for i := 1; i < len(fences); i++ {
		if fences[i] == fences[i-1] {
			t.Fatalf("duplicate fence %d at positions %d and %d", fences[i], i-1, i)
		}
	}
}

// TestSuccessiveExpiriesEachReported: when the same resource expires
// twice in a row through the same slot (two stuck holders back to
// back), each late ReleaseHold must observe ErrLeaseExpired — the older
// marker must not be lost when the newer expiry lands.
func TestSuccessiveExpiriesEachReported(t *testing.T) {
	v := vclock.NewVirtual()
	svc, err := New(Config{
		Shards:        1,
		Nodes:         2,
		Lease:         60 * time.Millisecond,
		SweepInterval: 5 * time.Millisecond,
		Clock:         v,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c, err := svc.On(1)
	if err != nil {
		t.Fatal(err)
	}

	const resource = "twice-stuck"
	first, err := c.Acquire(ctx, resource)
	if err != nil {
		t.Fatal(err)
	}
	advanceReclaimed(t, v, svc, resource, first)
	second, err := c.Acquire(ctx, resource)
	if err != nil {
		t.Fatal(err)
	}
	advanceReclaimed(t, v, svc, resource, second)

	// Both stuck holders come back late; each must learn its lease ran
	// out, in either order.
	if err := c.ReleaseHold(second); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("second stuck holder's release = %v, want ErrLeaseExpired", err)
	}
	if err := c.ReleaseHold(first); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("first stuck holder's release = %v, want ErrLeaseExpired", err)
	}
	// Markers are one-shot: a re-release is ErrNotHeld.
	if err := c.ReleaseHold(first); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("re-release of a reported expiry = %v, want ErrNotHeld", err)
	}
}

// advanceReclaimed advances the virtual clock past h's lease deadline
// plus two sweeper ticks, which fires the sweeper deterministically, and
// asserts the hold was force-released. The reclaim happens synchronously
// during Advance — no polling loop.
func advanceReclaimed(t *testing.T, v *vclock.Virtual, svc *Service, resource string, h Hold) {
	t.Helper()
	if d := v.Until(h.Expires); d > 0 {
		v.Advance(d)
	}
	v.Advance(10 * time.Millisecond) // two sweeps: at least one strictly past the deadline
	sh, err := svc.shardOf(resource)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := sh.slot(h.Node)
	if err != nil {
		t.Fatal(err)
	}
	if key, fence, held := sl.Holding(); held && key == resource && fence == h.Fence {
		t.Fatalf("hold %v not reclaimed by the sweeper after its deadline", h)
	}
}
