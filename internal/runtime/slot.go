package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dagmutex/internal/mutex"
	"dagmutex/internal/vclock"
)

// Hold-lifecycle sentinels, shared by every layer that holds through a
// Slot: the lock service re-exports them, the client wire protocol maps
// them onto its error codes, and the dialing side maps the codes back
// onto the same two values.
var (
	// ErrNotHeld reports a Release of a key the slot does not hold (never
	// acquired, already released, a different key, or a stale fence).
	ErrNotHeld = errors.New("not held")
	// ErrLeaseExpired reports a Release that arrived after the hold's
	// lease deadline passed and the sweeper force-released it. The caller
	// no longer owns the section — another member may hold it under a
	// higher fencing token — so work done since the deadline must not be
	// committed.
	ErrLeaseExpired = errors.New("lease expired")
)

// Defaults of the hold machine, applied by every user of Slot (the lock
// service's Config and Proxy) when the corresponding setting is zero.
const (
	// DefaultLease is the hold deadline.
	DefaultLease = 30 * time.Second
	// DefaultCohortBudget is the consecutive-local-handoff bound: high
	// enough to amortize a token visit over a node's queued local
	// waiters, low enough that a remote requester waits at most a few
	// extra hold times per visiting node.
	DefaultCohortBudget = 8
)

// maxExpiredMarkers bounds a slot's memory of unreported expiries: a
// caller that never comes back to Release leaves its marker behind, so
// beyond this many an arbitrary old marker is dropped (its very late
// Release then reports ErrNotHeld instead of ErrLeaseExpired).
const maxExpiredMarkers = 1024

// HoldEnd is how a hold ended; see Slot's end callback.
type HoldEnd struct {
	Node  mutex.ID
	Key   string
	Fence uint64
	// Since is when the hold was granted.
	Since time.Time
	// Regranted marks a release served by a cohort handoff: the section
	// passed to a queued local waiter with no token movement.
	Regranted bool
	// Expired marks a hold the sweeper force-released after its lease.
	Expired bool
	// Run is how many fences were handed to callers under this hold: 1,
	// except for a run (AcquireRun) whose release reported more. Fence is
	// then the last of them, and the Run-1 before it, consecutive, each
	// passed to the next caller inside the dialed connection: as many
	// handoffs that moved no token.
	Run int
	// Late marks the report of a run's handoffs that arrives after the
	// hold itself was reported Expired: the release came too late to end
	// anything, but the Run-1 handoffs it tells of did happen.
	Late bool
}

// Slot multiplexes many callers onto one Session. The paper allows one
// outstanding request per node, so the slot serializes acquirers, and it
// owns everything a shared member needs around a hold: the key and
// fencing token it is held under, a lease on it, a bounded run of local
// handoffs while more callers queue (the zero-message Regrant, then the
// pipelined ReleaseRequest), and recovery of a grant nobody is left to
// claim. Nothing is armed or allocated per hold: leases, abandoned
// requests and orphaned grants still traveling are settled by Sweep,
// which a Sweeper calls periodically; a landed grant whose waiters all
// gave up is adopted by the last of them to leave.
//
// Every one of those decisions is the hold machine's (Hold). The slot is
// its driver: it keeps the semaphore its callers queue on, the count of
// those queued, the lock the machine is stepped under and the session,
// and carries out what the machine leaves it — the free and the end
// report, after the lock.
//
// A caller that fronts a queue of its own (a dialed connection with more
// callers waiting for the key) takes a run instead of a hold: AcquireRun
// reserves, with the grant, every fence the cohort budget has left, and
// the caller rotates its own waiters through them without coming back.
// To the slot a run is one hold under the run's last fence and one
// lease; ReleaseRun ends it and says how many fences were handed out.
//
// The slot owns its session: nothing can serialize its callers against
// direct use of the same Session, so a process must not drive both. And
// one goroutine must not acquire through a slot it already holds — the
// nested Acquire waits for its own caller (until the lease reclaims the
// outer hold, which is then invalid).
type Slot struct {
	s *Session
	// end, when non-nil, is told how each hold ended, after the slot's
	// state is settled and before the slot is freed for the next
	// acquirer — so a counter bumped in it is ordered before the next
	// grant's. Stored once at construction; a call allocates nothing.
	end func(HoldEnd)

	sem chan struct{} // capacity 1: held while a caller owns, or is owed, the section
	// waiters counts acquirers queued on sem — the release path's signal
	// that a pipelined grant will be claimed.
	waiters atomic.Int64

	mu sync.Mutex
	h  Hold
}

// NewSlot wraps s. lease bounds each hold (<= 0 disables expiry), budget
// bounds consecutive cohort regrants (<= 0 disables them), and end (may
// be nil) observes how holds end. Nothing expires or recovers until a
// Sweeper drives the slot.
func NewSlot(s *Session, lease time.Duration, budget int, end func(HoldEnd)) *Slot {
	return &Slot{s: s, end: end, sem: make(chan struct{}, 1), h: NewHold(s.ID(), lease, budget)}
}

// Acquire queues behind the slot's other callers, then takes the
// section, and records the hold under key. The returned Grant carries
// the fencing token and, with leases enabled, the deadline in Expires.
// Cancelling ctx while queued gives up immediately; once the protocol
// request is in flight it cannot be cancelled, so the slot stays busy
// until the grant arrives and Sweep releases it.
func (sl *Slot) Acquire(ctx context.Context, key string) (Grant, error) {
	g, _, err := sl.acquire(ctx, key, false)
	return g, err
}

// AcquireRun is Acquire followed, before anything is returned, by the
// reservation of a run: every fence the cohort budget has left
// (1 + budget - streak on a fresh token visit), taken by advancing the
// protocol's fencing generation under the slot lock. The Grant carries
// the run's first fence and the one lease deadline all of it shares; the
// fences are consecutive, and the hold is recorded under the last, which
// is what ReleaseRun (or Release) must name. Because the generation moves
// before the caller hears of the run, no later grant anywhere can carry a
// fence inside it, whatever becomes of the caller. The run is 1 — an
// ordinary hold — when the budget is spent or disabled, or the protocol
// cannot regrant right now (mid-recovery).
func (sl *Slot) AcquireRun(ctx context.Context, key string) (Grant, int, error) {
	return sl.acquire(ctx, key, true)
}

func (sl *Slot) acquire(ctx context.Context, key string, run bool) (Grant, int, error) {
	sl.waiters.Add(1)
	select {
	case sl.sem <- struct{}{}:
		sl.waiters.Add(-1)
	case <-sl.s.Failed():
		// The cluster is dead; the slot may be parked forever on a grant
		// that will never arrive. Fail fast instead of waiting out ctx.
		sl.waiters.Add(-1)
		return Grant{}, 0, fmt.Errorf("acquire node %d: cluster failed: %w", sl.s.ID(), sl.s.Err())
	case <-ctx.Done():
		if sl.waiters.Add(-1) == 0 {
			sl.left()
		}
		return Grant{}, 0, fmt.Errorf("acquire node %d: %w", sl.s.ID(), ctx.Err())
	}
	sl.mu.Lock()
	_, pipelined, _ := sl.h.Take(sl.session(), false)
	sl.mu.Unlock()
	var g Grant
	var err error
	if pipelined {
		g, err = sl.s.Await(ctx)
	} else {
		g, err = sl.s.Acquire(ctx)
	}
	if err != nil {
		if errors.Is(err, ErrGrantPending) {
			// The request stays outstanding whether the wait failed on ctx
			// or on a cluster error, so the token may still arrive. Keep
			// the slot busy until Sweep drains it — freed now, the next
			// caller would double-request, and undrained, the token would
			// park here forever.
			sl.mu.Lock()
			sl.h.Abandon()
			sl.mu.Unlock()
		} else {
			<-sl.sem
		}
		return Grant{}, 0, err
	}
	sl.mu.Lock()
	n := sl.h.Admit(sl.session(), key, &g, run)
	sl.mu.Unlock()
	return g, n, nil
}

// TryAcquire takes the section only if the slot is free and the grant
// needs no waiting: a pipelined grant that has already landed, or a
// protocol grant that needs no messages (an idle local token). It
// reports false (with no error) otherwise, leaving a pipelined grant
// still in flight pending for the next Acquire or Sweep.
func (sl *Slot) TryAcquire(key string) (Grant, bool, error) {
	select {
	case sl.sem <- struct{}{}:
	default:
		return Grant{}, false, nil
	}
	var err error
	sl.mu.Lock()
	g, pipelined, ok := sl.h.Take(sl.session(), true)
	sl.mu.Unlock()
	if !pipelined {
		g, ok, err = sl.s.TryAcquire()
	}
	if err != nil || !ok {
		// Try never leaves a request outstanding: the slot is reusable.
		<-sl.sem
		return Grant{}, false, err
	}
	sl.mu.Lock()
	sl.h.Admit(sl.session(), key, &g, false)
	sl.mu.Unlock()
	return g, true, nil
}

// Release ends the hold of key. fence identifies the exact hold
// (Grant.Generation); fence 0 releases by name, whatever hold of key is
// current. The protocol-level release happens under the slot lock so it
// cannot race Sweep force-releasing the same hold.
//
// The fence makes the lifecycle errors precise. A by-name Release of a
// slot that moved on cannot tell "my old hold expired" from "I already
// released this", so a clean by-name release retires the key's
// unreported markers and a failed one reports whichever marker for the
// key remains. A by-fence Release matches markers exactly, so a stale
// generation always reports ErrLeaseExpired (once, then ErrNotHeld) and
// someone else's newer hold is never released by accident.
//
// While other callers are queued the release hands over locally: the
// next grant is put in flight as part of it — by Regrant (no protocol
// traffic, at most budget times in a row) or by the pipelined
// ReleaseRequest — and the next caller collects it with Await.
func (sl *Slot) Release(key string, fence uint64) error {
	return sl.ReleaseRun(key, fence, 1, false)
}

// ReleaseRun is Release for the holder of a run: fence is the run's last
// fence, used how many of its fences were handed to callers (reported in
// HoldEnd.Run; never trusted beyond what was reserved), and more says
// that the caller's next acquire is on its way, which counts as a queued
// waiter even if it has not reached the slot yet — the handoff is
// pipelined for it, and Sweep adopts the grant should it never come.
func (sl *Slot) ReleaseRun(key string, fence uint64, used int, more bool) error {
	var d Done
	sl.mu.Lock()
	err := sl.h.Release(sl.session(), key, fence, used, more, int(sl.waiters.Load()), &d)
	sl.mu.Unlock()
	sl.finish(&d)
	return err
}

// Sweep settles whatever the slot's callers left behind, as of now: it
// adopts a pipelined grant whose waiters all gave up, drains the grant
// of an abandoned Acquire once it has arrived, and force-releases a hold
// that outlived its lease (leaving a marker for the late Release). Each
// ends with the token released and the slot freed; if that release fails
// the cluster is broken and the slot stays busy.
func (sl *Slot) Sweep(now time.Time) {
	var d Done
	sl.mu.Lock()
	sl.h.Sweep(sl.session(), now, int(sl.waiters.Load()), &d)
	sl.mu.Unlock()
	sl.finish(&d)
}

// left steps the machine's Left: the last waiter gave up, or may have
// while a handoff still had the slot.
func (sl *Slot) left() {
	var d Done
	sl.mu.Lock()
	sl.h.Left(sl.session(), int(sl.waiters.Load()), &d)
	sl.mu.Unlock()
	sl.finish(&d)
}

// finish carries out what a step of the machine left, out of sl.mu: it
// tells the observer how a hold ended, frees the slot, and looks again
// for a grant nobody is left to claim.
func (sl *Slot) finish(d *Done) {
	if d.Report && sl.end != nil {
		sl.end(d.End)
	}
	if !d.Free {
		return
	}
	<-sl.sem
	if d.Recheck && sl.waiters.Load() == 0 {
		sl.left()
	}
}

// session is the slot as its machine's HoldSession.
func (sl *Slot) session() *slotSession { return (*slotSession)(sl) }

type slotSession Slot

func (d *slotSession) Regrant(take bool) (uint64, bool) {
	if ok, err := d.s.Regrant(); err != nil || !ok {
		return 0, false
	}
	if !take {
		return 0, true
	}
	return (<-d.s.Granted()).Generation, true
}

// Claim takes the pending grant if it has landed, taking the slot first
// when sem is set — without blocking either way: an acquirer that holds
// the slot claims the grant itself, and the acquire path (sem before mu)
// cannot deadlock against this.
func (d *slotSession) Claim(sem bool) (Grant, bool) {
	if sem {
		select {
		case d.sem <- struct{}{}:
		default:
			return Grant{}, false
		}
	}
	select {
	case g := <-d.s.Granted():
		return g, true
	default:
		// Still traveling (the ReleaseRequest path): Sweep retries.
		if sem {
			<-d.sem
		}
		return Grant{}, false
	}
}

func (d *slotSession) Release(again bool) error {
	if again {
		return d.s.ReleaseRequest()
	}
	return d.s.Release()
}

// SweepCadence is how often a slot with the given lease is swept unless
// configured otherwise: a quarter of the lease, clamped to [1ms, 1s]
// (1s with leases disabled, where only recovery depends on it). It
// bounds how late a lease is enforced, an orphaned grant adopted and an
// abandoned grant drained.
func SweepCadence(lease time.Duration) time.Duration {
	every := lease / 4
	if lease <= 0 || every > time.Second {
		return time.Second
	}
	if every < time.Millisecond {
		return time.Millisecond
	}
	return every
}

// Sweeper sweeps a set of slots periodically: a vclock.Every tick chain,
// so on a virtual clock it runs deterministically on the advancing
// goroutine, and on the real clock no goroutine exists between ticks.
type Sweeper struct{ stop func() }

// StartSweeper starts sweeping slots every interval on clk (nil: the
// real clock). Callers must Stop it.
func StartSweeper(clk vclock.Clock, every time.Duration, slots ...*Slot) *Sweeper {
	clk = vclock.Or(clk)
	return &Sweeper{stop: vclock.Every(clk, every, func() {
		now := clk.Now()
		for _, sl := range slots {
			sl.Sweep(now)
		}
	})}
}

// Stop withdraws the chain. A tick already running finishes its pass and
// does not re-arm; no later one touches the (closing) sessions.
func (w *Sweeper) Stop() { w.stop() }
