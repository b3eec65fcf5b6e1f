package runtime_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dagmutex/internal/core"
	"dagmutex/internal/mutex"
	"dagmutex/internal/runtime"
	"dagmutex/internal/topology"
	"dagmutex/internal/transport"
	"dagmutex/internal/vclock"
)

// slotFixture is a 3-node in-process star on a virtual clock with the
// token at node 1 and a Slot over node 1's session. Nothing sweeps the
// slot but the test, at instants it names, so every deadline is exact.
// (The one row that needs a cluster to fail lives beside the stub link
// it needs: TestSlotFailedSessionFailsQueuedAcquirers in runtime_test.go.)
type slotFixture struct {
	t   *testing.T
	v   *vclock.Virtual
	l   *transport.Local
	sl  *runtime.Slot
	ctx context.Context

	mu   sync.Mutex
	ends []runtime.HoldEnd
	// onEnd, when set, runs inside the end callback: after the slot's
	// state is settled, before the slot is freed.
	onEnd func()

	// recovering makes every node refuse to regrant, as core does while a
	// recovery has it frozen.
	recovering atomic.Bool
}

// fixtureNode is core's node, except that Regrant can be made to answer
// "not now".
type fixtureNode struct {
	*core.Node
	recovering *atomic.Bool
}

func (n fixtureNode) Regrant() (bool, error) {
	if n.recovering.Load() {
		return false, nil
	}
	return n.Node.Regrant()
}

func (fx *slotFixture) build(id mutex.ID, env mutex.Env, cfg mutex.Config) (mutex.Node, error) {
	n, err := core.New(id, env, cfg)
	return fixtureNode{n, &fx.recovering}, err
}

// generation reads node id's fencing counter.
func (fx *slotFixture) generation(id mutex.ID) uint64 {
	fx.t.Helper()
	var gen uint64
	if err := fx.l.WithNode(id, func(n mutex.Node) error {
		gen = n.(fixtureNode).Snapshot().Generation
		return nil
	}); err != nil {
		fx.t.Fatal(err)
	}
	return gen
}

// acquireRun is AcquireRun, returning the run's first and last fence.
func (fx *slotFixture) acquireRun(key string) (g runtime.Grant, first, last uint64) {
	fx.t.Helper()
	g, run, err := fx.sl.AcquireRun(fx.ctx, key)
	if err != nil {
		fx.t.Fatalf("acquire run %q: %v", key, err)
	}
	if run < 1 {
		fx.t.Fatalf("run of %d fences", run)
	}
	return g, g.Generation, g.Generation + uint64(run-1)
}

// wantReleaseRun asserts ReleaseRun(key, last, used, more) reports want.
func (fx *slotFixture) wantReleaseRun(key string, last uint64, used int, more bool, want error) {
	fx.t.Helper()
	err := fx.sl.ReleaseRun(key, last, used, more)
	if want == nil && err != nil || want != nil && !errors.Is(err, want) {
		fx.t.Fatalf("release run(%q, %d, used %d) = %v, want %v", key, last, used, err, want)
	}
}

// node2Grant acquires and releases through node 2 and returns its fence.
func (fx *slotFixture) node2Grant() uint64 {
	fx.t.Helper()
	g, err := fx.l.Session(2).Acquire(fx.ctx)
	if err != nil {
		fx.t.Fatal(err)
	}
	if err := fx.l.Session(2).Release(); err != nil {
		fx.t.Fatal(err)
	}
	return g.Generation
}

// wantServedAtOnce asserts that node 2 gets the token with no sweep:
// nothing is left parked at node 1.
func (fx *slotFixture) wantServedAtOnce() {
	fx.t.Helper()
	ctx, cancel := context.WithTimeout(fx.ctx, 2*time.Second)
	defer cancel()
	if _, err := fx.l.Session(2).Acquire(ctx); err != nil {
		fx.t.Fatalf("node 2's acquire, with no sweep = %v: an orphaned grant holds the token", err)
	}
	if err := fx.l.Session(2).Release(); err != nil {
		fx.t.Fatal(err)
	}
}

func newSlotFixture(t *testing.T, lease time.Duration, budget int) *slotFixture {
	t.Helper()
	fx := &slotFixture{t: t, v: vclock.NewVirtual()}
	tree := topology.Star(3)
	cfg := mutex.Config{IDs: tree.IDs(), Holder: 1, Parent: tree.ParentsToward(1)}
	l, err := transport.NewLocal(fx.build, cfg, transport.WithClock(fx.v))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	fx.l = l
	fx.sl = runtime.NewSlot(l.Session(1), lease, budget, func(e runtime.HoldEnd) {
		fx.mu.Lock()
		fx.ends = append(fx.ends, e)
		onEnd := fx.onEnd
		fx.mu.Unlock()
		if onEnd != nil {
			onEnd()
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	fx.ctx = ctx
	return fx
}

func (fx *slotFixture) acquire(key string) runtime.Grant {
	fx.t.Helper()
	g, err := fx.sl.Acquire(fx.ctx, key)
	if err != nil {
		fx.t.Fatalf("acquire %q: %v", key, err)
	}
	return g
}

// expire acquires key and sweeps one nanosecond past its deadline: a
// stuck holder whose hold is reclaimed.
func (fx *slotFixture) expire(key string) runtime.Grant {
	fx.t.Helper()
	g := fx.acquire(key)
	fx.sl.Sweep(g.Expires.Add(time.Nanosecond))
	if _, _, held := fx.sl.Holding(); held {
		fx.t.Fatalf("hold of %q (fence %d) survived a sweep past its deadline", key, g.Generation)
	}
	return g
}

// lastEnd returns the most recent end-of-hold report.
func (fx *slotFixture) lastEnd() runtime.HoldEnd {
	fx.t.Helper()
	fx.mu.Lock()
	defer fx.mu.Unlock()
	if len(fx.ends) == 0 {
		fx.t.Fatal("no hold end reported")
	}
	return fx.ends[len(fx.ends)-1]
}

// wantRelease asserts Release(key, fence) reports want (nil: success).
func (fx *slotFixture) wantRelease(key string, fence uint64, want error) {
	fx.t.Helper()
	err := fx.sl.Release(key, fence)
	if want == nil && err != nil || want != nil && !errors.Is(err, want) {
		fx.t.Fatalf("release(%q, %d) = %v, want %v", key, fence, err, want)
	}
}

// eventually polls cond, for state another goroutine or an in-process
// message delivery is about to produce.
func (fx *slotFixture) eventually(what string, cond func() bool) {
	fx.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			fx.t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// remoteQueued starts node 2 acquiring and returns once its REQUEST is
// queued behind node 1 (node 1's FOLLOW names it). The channel yields
// node 2's grant.
func (fx *slotFixture) remoteQueued() <-chan runtime.Grant {
	fx.t.Helper()
	got := make(chan runtime.Grant, 1)
	go func() {
		g, err := fx.l.Session(2).Acquire(fx.ctx)
		if err != nil {
			fx.t.Errorf("node 2 acquire: %v", err)
		}
		got <- g
	}()
	fx.eventually("node 2's request is queued at node 1", func() bool {
		var follow mutex.ID
		if err := fx.l.WithNode(1, func(n mutex.Node) error {
			follow = n.(fixtureNode).Snapshot().Follow
			return nil
		}); err != nil {
			fx.t.Fatal(err)
		}
		return follow == 2
	})
	return got
}

func TestSlot(t *testing.T) {
	const lease = 50 * time.Millisecond
	rows := []struct {
		name   string
		lease  time.Duration
		budget int
		run    func(fx *slotFixture)
	}{
		{"expiry is exact and leaves a one-shot marker matched by fence", lease, 0, func(fx *slotFixture) {
			g := fx.acquire("k")
			if want := fx.v.Now().Add(lease); !g.Expires.Equal(want) {
				fx.t.Fatalf("deadline %v, want %v", g.Expires, want)
			}
			fx.sl.Sweep(g.Expires) // at the deadline is not past it
			if _, fence, held := fx.sl.Holding(); !held || fence != g.Generation {
				fx.t.Fatal("hold reclaimed at, not after, its deadline")
			}
			fx.sl.Sweep(g.Expires.Add(time.Nanosecond))
			if _, _, held := fx.sl.Holding(); held {
				fx.t.Fatal("hold survived a sweep past its deadline")
			}
			if e := fx.lastEnd(); !e.Expired || e.Regranted || e.Key != "k" || e.Fence != g.Generation || e.Node != 1 || !e.Since.Equal(g.At) {
				fx.t.Fatalf("end report = %+v", e)
			}
			g2 := fx.acquire("k") // the slot moved on; the marker outlives that
			if g2.Generation <= g.Generation {
				fx.t.Fatalf("post-expiry fence %d not above %d", g2.Generation, g.Generation)
			}
			fx.wantRelease("k", g.Generation, runtime.ErrLeaseExpired)
			fx.wantRelease("k", g.Generation, runtime.ErrNotHeld)
			fx.wantRelease("other", g2.Generation, runtime.ErrNotHeld) // right fence, wrong key
			fx.wantRelease("k", g2.Generation, nil)
		}},
		{"by-name release reports any marker for the key, and a clean one retires the rest", lease, 0, func(fx *slotFixture) {
			g1, g2 := fx.expire("k"), fx.expire("k")
			fx.expire("other")
			fx.wantRelease("k", 0, runtime.ErrLeaseExpired) // one of k's two markers
			fx.acquire("k")
			fx.wantRelease("k", 0, nil) // clean: retires k's other marker
			fx.wantRelease("k", 0, runtime.ErrNotHeld)
			fx.wantRelease("k", g1.Generation, runtime.ErrNotHeld)
			fx.wantRelease("k", g2.Generation, runtime.ErrNotHeld)
			fx.wantRelease("other", 0, runtime.ErrLeaseExpired) // untouched by k's releases
			if m := fx.sl.State().Markers; m != 0 {
				fx.t.Fatalf("%d markers left", m)
			}
		}},
		{"the 1025th marker evicts one", lease, 0, func(fx *slotFixture) {
			fences := make([]uint64, 1025)
			for i := range fences {
				fences[i] = fx.expire("k").Generation
			}
			if m := fx.sl.State().Markers; m != 1024 {
				fx.t.Fatalf("%d markers after 1025 expiries, want 1024", m)
			}
			reported := 0
			for _, f := range fences {
				switch err := fx.sl.Release("k", f); {
				case errors.Is(err, runtime.ErrLeaseExpired):
					reported++
				case !errors.Is(err, runtime.ErrNotHeld):
					fx.t.Fatalf("late release of fence %d = %v", f, err)
				}
			}
			if reported != 1024 {
				fx.t.Fatalf("%d late releases learned of their expiry, want 1024", reported)
			}
		}},
		{"streak stops at the budget and the next release is a ReleaseRequest", -1, 3, func(fx *slotFixture) {
			g := fx.acquire("k")
			remote := fx.remoteQueued()
			fx.sl.AddWaiters(1) // a local caller is always queued
			for i := 1; i <= 3; i++ {
				fx.wantRelease("k", g.Generation, nil)
				if e, st := fx.lastEnd(), fx.sl.State(); !e.Regranted || st.Streak != i || !st.Pending {
					fx.t.Fatalf("release %d: end %+v, state %+v; want a regrant", i, e, st)
				}
				next, ok, err := fx.sl.TryAcquire("k")
				if err != nil || !ok || next.Generation <= g.Generation {
					fx.t.Fatalf("claim of regrant %d = (%+v, %v, %v)", i, next, ok, err)
				}
				g = next
			}
			select {
			case <-remote:
				fx.t.Fatal("node 2 served while the streak was within budget")
			default:
			}
			before := fx.l.Messages()
			fx.wantRelease("k", g.Generation, nil)
			if e, st := fx.lastEnd(), fx.sl.State(); e.Regranted || st.Streak != 0 || !st.Pending {
				fx.t.Fatalf("release past the budget: end %+v, state %+v; want ReleaseRequest (pending, streak 0)", e, st)
			}
			rg := <-remote
			if rg.Generation <= g.Generation {
				fx.t.Fatalf("node 2's fence %d not above %d", rg.Generation, g.Generation)
			}
			if err := fx.l.Session(2).Release(); err != nil {
				fx.t.Fatal(err)
			}
			// The re-request rode the outgoing PRIVILEGE: the whole round is
			// the token out and the token back, and the claimant sends nothing.
			fx.sl.AddWaiters(-1)
			if back := fx.acquire("k"); back.Generation <= rg.Generation {
				fx.t.Fatalf("fence %d not above node 2's %d", back.Generation, rg.Generation)
			}
			if sent := fx.l.Messages() - before; sent != 2 {
				fx.t.Fatalf("%d messages for the pipelined handoff round, want 2", sent)
			}
		}},
		{"a run advances the generation by what it reserves before the grant is returned, and a full one ends in a ReleaseRequest", lease, 8, func(fx *slotFixture) {
			g, first, last := fx.acquireRun("k")
			if last != first+8 {
				fx.t.Fatalf("run %d..%d on a fresh token visit, want 1 + budget = 9 fences", first, last)
			}
			if gen := fx.generation(1); gen != last {
				fx.t.Fatalf("generation %d once the run is returned, want its last fence %d", gen, last)
			}
			if _, fence, held := fx.sl.Holding(); !held || fence != last {
				fx.t.Fatalf("hold recorded under fence %d (held %v), want the run's last %d", fence, held, last)
			}
			if st := fx.sl.State(); st.Streak != 8 {
				fx.t.Fatalf("streak %d after reserving 8 regrants", st.Streak)
			}
			if want := fx.v.Now().Add(lease); !g.Expires.Equal(want) {
				fx.t.Fatalf("run deadline %v, want one lease %v", g.Expires, want)
			}
			fx.wantRelease("k", first, runtime.ErrNotHeld) // the run is known by its last fence only
			remote := fx.remoteQueued()
			fx.sl.AddWaiters(1)
			before := fx.l.Messages()
			fx.wantReleaseRun("k", last, 9, false, nil)
			if e, st := fx.lastEnd(), fx.sl.State(); e.Regranted || e.Run != 9 || e.Fence != last || st.Streak != 0 || !st.Pending {
				fx.t.Fatalf("release of a full run: end %+v, state %+v; want ReleaseRequest (pending, streak 0)", e, st)
			}
			rg := <-remote
			if rg.Generation <= last {
				fx.t.Fatalf("node 2's fence %d not above the run's last %d", rg.Generation, last)
			}
			if err := fx.l.Session(2).Release(); err != nil {
				fx.t.Fatal(err)
			}
			fx.sl.AddWaiters(-1)
			if _, first2, _ := fx.acquireRun("k"); first2 <= rg.Generation {
				fx.t.Fatalf("next run starts at %d, not above node 2's %d", first2, rg.Generation)
			}
			if sent := fx.l.Messages() - before; sent != 2 {
				fx.t.Fatalf("%d messages for the round after a full run, want 2", sent)
			}
		}},
		{"a run that ends early skips its unused fences and hands their budget back", -1, 8, func(fx *slotFixture) {
			_, first, last := fx.acquireRun("k")
			fx.wantReleaseRun("k", last, 3, false, nil)
			if e, st := fx.lastEnd(), fx.sl.State(); e.Run != 3 || e.Fence != first+2 || e.Regranted || st.Streak != 0 {
				fx.t.Fatalf("early end: end %+v, state %+v; want 3 fences ending at %d", e, st, first+2)
			}
			if f := fx.node2Grant(); f <= last {
				fx.t.Fatalf("node 2 granted fence %d inside the skipped part of %d..%d", f, first, last)
			}
			// Held to a waiter, the unused share is what the next handoffs may
			// still spend: 9 reserved, 3 used, so 6 regrants remain of 8.
			_, _, last = fx.acquireRun("k")
			fx.sl.AddWaiters(1)
			fx.wantReleaseRun("k", last, 3, false, nil)
			if e, st := fx.lastEnd(), fx.sl.State(); !e.Regranted || st.Streak != 3 {
				fx.t.Fatalf("early end with a waiter: end %+v, state %+v; want a regrant at streak 2+1", e, st)
			}
			// A report of more than was reserved is cut down to it.
			g, ok, err := fx.sl.TryAcquire("k")
			if !ok || err != nil {
				fx.t.Fatalf("claim of the regrant = (%v, %v)", ok, err)
			}
			fx.sl.AddWaiters(-1)
			fx.wantRelease("k", g.Generation, nil)
			_, first, last = fx.acquireRun("k")
			fx.wantReleaseRun("k", last, 1000, false, nil)
			if e := fx.lastEnd(); e.Run != int(last-first+1) || e.Fence != last {
				fx.t.Fatalf("over-reported run: end %+v, want the %d reserved", e, last-first+1)
			}
		}},
		{"an expired run is one hold and one marker, and fences off every fence it reserved", lease, 8, func(fx *slotFixture) {
			g, first, last := fx.acquireRun("k")
			fx.sl.Sweep(g.Expires.Add(time.Nanosecond))
			if _, _, held := fx.sl.Holding(); held {
				fx.t.Fatal("run survived a sweep past its deadline")
			}
			if e, st := fx.lastEnd(), fx.sl.State(); !e.Expired || e.Run != 1 || e.Fence != last || st.Markers != 1 || st.Streak != 0 {
				fx.t.Fatalf("expired run: end %+v, state %+v; want one expiry under fence %d", e, st, last)
			}
			if f := fx.node2Grant(); f <= last {
				fx.t.Fatalf("node 2 granted fence %d, not above the dead run %d..%d", f, first, last)
			}
			fx.wantReleaseRun("k", first+3, 4, false, runtime.ErrNotHeld) // not the fence it is filed under
			fx.wantReleaseRun("k", last, 4, false, runtime.ErrLeaseExpired)
			if e := fx.lastEnd(); !e.Late || e.Run != 4 || e.Fence != first+3 {
				fx.t.Fatalf("late report = %+v, want the 4 fences up to %d that callers did hold", e, first+3)
			}
			fx.wantReleaseRun("k", last, 4, false, runtime.ErrNotHeld)
			if m := fx.sl.State().Markers; m != 0 {
				fx.t.Fatalf("%d markers left", m)
			}
		}},
		{"budget 0 never reserves", -1, 0, neverReserves},
		{"negative budget never reserves", -1, -1, neverReserves},
		{"mid-recovery a run is one fence", -1, 8, func(fx *slotFixture) {
			fx.recovering.Store(true)
			neverReserves(fx)
			fx.recovering.Store(false)
			if _, first, last := fx.acquireRun("k"); last != first+8 {
				fx.t.Fatalf("run %d..%d once regrants work again, want 9 fences", first, last)
			}
		}},
		{"a release told that the next acquire is on its way hands over as to a queued waiter", -1, 8, func(fx *slotFixture) {
			_, _, last := fx.acquireRun("k")
			remote := fx.remoteQueued()
			fx.wantReleaseRun("k", last, 9, true, nil) // budget spent: ReleaseRequest, with nobody queued yet
			if e, st := fx.lastEnd(), fx.sl.State(); e.Regranted || !st.Pending || st.Waiters != 0 {
				fx.t.Fatalf("end %+v, state %+v; want the pipelined handoff", e, st)
			}
			rg := <-remote
			if err := fx.l.Session(2).Release(); err != nil {
				fx.t.Fatal(err)
			}
			_, first, last := fx.acquireRun("k") // the acquire arrives: it collects the grant
			if first <= rg.Generation {
				fx.t.Fatalf("run starts at %d, not above node 2's %d", first, rg.Generation)
			}
			// And if it never arrives, the grant is an orphan like any other.
			fx.wantReleaseRun("k", last, 1, true, nil)
			if st := fx.sl.State(); !st.Pending {
				fx.t.Fatalf("state %+v, want a pending grant", st)
			}
			fx.eventually("Sweep adopts the grant nobody came for", func() bool {
				fx.sl.Sweep(fx.v.Now())
				return !fx.sl.State().Pending
			})
			fx.node2Grant()
		}},
		{"budget 0 never regrants", -1, 0, neverRegrants},
		{"negative budget never regrants", -1, -1, neverRegrants},
		{"an abandoned acquire keeps the slot busy until Sweep drains the grant", -1, 8, func(fx *slotFixture) {
			other := fx.l.Session(2)
			if _, err := other.Acquire(fx.ctx); err != nil {
				fx.t.Fatal(err)
			}
			short, cancel := context.WithTimeout(fx.ctx, 20*time.Millisecond)
			defer cancel()
			if _, err := fx.sl.Acquire(short, "k"); !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, runtime.ErrGrantPending) {
				fx.t.Fatalf("acquire under a held token = %v, want a pending deadline error", err)
			}
			if !fx.sl.State().Abandoned {
				fx.t.Fatal("slot not marked abandoned")
			}
			fx.sl.Sweep(fx.v.Now()) // nothing has arrived: nothing to drain
			if err := other.Release(); err != nil {
				fx.t.Fatal(err)
			}
			// Busy whether or not the grant has landed yet: only Sweep frees it.
			if _, ok, err := fx.sl.TryAcquire("k"); ok || err != nil {
				fx.t.Fatalf("try on an abandoned slot = (%v, %v), want not-now", ok, err)
			}
			fx.eventually("Sweep drains the arrived grant", func() bool {
				fx.sl.Sweep(fx.v.Now())
				return !fx.sl.State().Abandoned
			})
			// Drained means released: the token is free for anyone again.
			if _, err := other.Acquire(fx.ctx); err != nil {
				fx.t.Fatal(err)
			}
			if err := other.Release(); err != nil {
				fx.t.Fatal(err)
			}
			fx.wantRelease("k", 0, runtime.ErrNotHeld)
			fx.acquire("k")
		}},
		{"an orphaned pending grant is adopted only with no waiter and a free slot", -1, 8, func(fx *slotFixture) {
			g := fx.acquire("k")
			fx.sl.AddWaiters(1)
			fx.wantRelease("k", g.Generation, nil) // regrants for the waiter
			fx.sl.Sweep(fx.v.Now())
			if !fx.sl.State().Pending {
				fx.t.Fatal("pending grant adopted while a waiter was still queued")
			}
			fx.sl.AddWaiters(-1) // the waiter gives up
			fx.sl.HoldSem()      // ...but a new acquirer is mid-claim
			fx.sl.Sweep(fx.v.Now())
			if !fx.sl.State().Pending {
				fx.t.Fatal("pending grant adopted from under an acquirer holding the slot")
			}
			fx.sl.FreeSem()
			fx.sl.Sweep(fx.v.Now())
			if st := fx.sl.State(); st.Pending || st.Streak != 0 {
				fx.t.Fatalf("orphaned grant not adopted: %+v", st)
			}
			// Adopted means released: another member gets the token.
			if _, err := fx.l.Session(2).Acquire(fx.ctx); err != nil {
				fx.t.Fatal(err)
			}
		}},
		{"a waiter that gives up while the release still holds the slot leaves no orphan", -1, 8, func(fx *slotFixture) {
			g := fx.acquire("k")
			wctx, cancel := context.WithCancel(fx.ctx)
			defer cancel()
			left := make(chan error, 1)
			go func() {
				_, err := fx.sl.Acquire(wctx, "k")
				left <- err
			}()
			fx.eventually("the waiter queues", func() bool { return fx.sl.State().Waiters == 1 })
			fx.mu.Lock()
			fx.onEnd = func() {
				// The release has regranted for the waiter and not freed the
				// slot yet: the waiter gives up now, when it cannot adopt.
				cancel()
				if err := <-left; !errors.Is(err, context.Canceled) {
					fx.t.Errorf("the waiter's acquire = %v, want context.Canceled", err)
				}
			}
			fx.mu.Unlock()
			fx.wantRelease("k", g.Generation, nil)
			fx.mu.Lock()
			fx.onEnd = nil
			fx.mu.Unlock()
			fx.wantServedAtOnce()
		}},
		{"the last waiter to give up adopts a landed grant at once", -1, 8, func(fx *slotFixture) {
			for tries := 0; ; tries++ {
				g := fx.acquire("k")
				fx.wantReleaseRun("k", g.Generation, 1, true, nil) // a handoff for an acquire on its way
				gone, cancel := context.WithCancel(fx.ctx)
				cancel()
				// The acquire finds its context done and the slot free at once,
				// and either may win: it gives up, or it claims the grant.
				h, err := fx.sl.Acquire(gone, "k")
				if err == nil {
					fx.wantRelease("k", h.Generation, nil)
					if tries == 50 {
						fx.t.Fatal("50 acquires on a done context all claimed the grant")
					}
					continue
				}
				if st := fx.sl.State(); st.Pending || st.Waiters != 0 {
					fx.t.Fatalf("the acquire gave up (%v) and left %+v", err, st)
				}
				break
			}
			fx.wantServedAtOnce()
		}},
		{"TryAcquire claims a landed pending grant and leaves one in flight pending", -1, 0, func(fx *slotFixture) {
			g := fx.acquire("k")
			remote := fx.remoteQueued()
			fx.sl.AddWaiters(1)
			fx.wantRelease("k", g.Generation, nil) // ReleaseRequest: token to node 2, grant in flight
			fx.sl.AddWaiters(-1)
			rg := <-remote
			if _, ok, err := fx.sl.TryAcquire("k"); ok || err != nil {
				fx.t.Fatalf("try with the grant in flight = (%v, %v), want not-now", ok, err)
			}
			if !fx.sl.State().Pending {
				fx.t.Fatal("a not-now try dropped the pending grant")
			}
			if err := fx.l.Session(2).Release(); err != nil {
				fx.t.Fatal(err)
			}
			var landed runtime.Grant
			fx.eventually("the pipelined grant lands", func() bool {
				var ok bool
				var err error
				if landed, ok, err = fx.sl.TryAcquire("k"); err != nil {
					fx.t.Fatal(err)
				}
				return ok
			})
			if st := fx.sl.State(); st.Pending || landed.Generation <= rg.Generation {
				fx.t.Fatalf("claimed %+v after node 2's fence %d, state %+v", landed, rg.Generation, st)
			}
			fx.wantRelease("k", landed.Generation, nil)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			row.run(newSlotFixture(t, row.lease, row.budget))
		})
	}
}

// neverRegrants: with the cohort disabled every contended release takes
// the protocol path, however many local callers queue.
func neverRegrants(fx *slotFixture) {
	g := fx.acquire("k")
	fx.sl.AddWaiters(2)
	for i := 0; i < 5; i++ {
		fx.wantRelease("k", g.Generation, nil)
		if e, st := fx.lastEnd(), fx.sl.State(); e.Regranted || st.Streak != 0 || !st.Pending {
			fx.t.Fatalf("release %d: end %+v, state %+v; want the pipelined path", i, e, st)
		}
		var ok bool
		var err error
		if g, ok, err = fx.sl.TryAcquire("k"); !ok || err != nil {
			fx.t.Fatalf("claim %d = (%v, %v)", i, ok, err)
		}
	}
}

// neverReserves: with the cohort disabled, or a protocol that will not
// regrant right now, a run is an ordinary hold of one fence.
func neverReserves(fx *slotFixture) {
	for i := 0; i < 3; i++ {
		_, first, last := fx.acquireRun("k")
		if last != first || fx.generation(1) != first {
			fx.t.Fatalf("run %d..%d, generation %d; want a single fence", first, last, fx.generation(1))
		}
		if st := fx.sl.State(); st.Streak != 0 {
			fx.t.Fatalf("streak %d with nothing reserved", st.Streak)
		}
		fx.wantReleaseRun("k", last, 1, false, nil)
	}
}

// TestSweeperCadenceOnVirtualClock: the sweeper enforces a lease on its
// first tick strictly past the deadline, and not at all once stopped.
func TestSweeperCadenceOnVirtualClock(t *testing.T) {
	fx := newSlotFixture(t, 25*time.Millisecond, 0)
	w := runtime.StartSweeper(fx.v, 10*time.Millisecond, fx.sl)
	g := fx.acquire("k")
	fx.v.Advance(20 * time.Millisecond) // ticks at 10 and 20: deadline is 25
	if _, _, held := fx.sl.Holding(); !held {
		t.Fatal("hold reclaimed before its deadline")
	}
	fx.v.Advance(10 * time.Millisecond) // tick at 30
	if _, _, held := fx.sl.Holding(); held {
		t.Fatal("hold not reclaimed by the first tick past its deadline")
	}
	fx.wantRelease("k", g.Generation, runtime.ErrLeaseExpired)
	w.Stop()
	fx.acquire("k")
	fx.v.Advance(time.Second)
	if _, _, held := fx.sl.Holding(); !held {
		t.Fatal("a stopped sweeper reclaimed a hold")
	}
	for lease, want := range map[time.Duration]time.Duration{
		runtime.DefaultLease:  time.Second,
		time.Second:           250 * time.Millisecond,
		80 * time.Millisecond: 20 * time.Millisecond,
		2 * time.Millisecond:  time.Millisecond,
		-1:                    time.Second,
	} {
		if got := runtime.SweepCadence(lease); got != want {
			t.Errorf("SweepCadence(%v) = %v, want %v", lease, got, want)
		}
	}
}
