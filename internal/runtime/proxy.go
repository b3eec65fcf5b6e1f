package runtime

import (
	"context"
	"fmt"
	"time"
)

// Proxy serves many remote clients through one member Session: a
// one-slot instance of the hold machine the lock service runs per
// (node, shard) — see Slot for the queueing, lease, cohort-handoff and
// recovery rules — with the lock service's default lease and cohort
// budget, swept at SweepCadence(lease). A stuck client's hold is
// therefore reclaimed, an orphaned pipelined grant adopted and a
// canceled acquire's grant drained on the sweep tick (within lease/4,
// at most 1s), not at the instant they become due.
//
// It implements the transport layer's ClientBackend surface, and the
// optional run capability beside it, keyed by the empty resource name: a
// member arbitrates exactly one critical section; named resources are the
// lock service's job.
//
// The proxy owns the session it wraps, as every Slot does: a member
// process that serves remote clients must not drive that Session
// itself — acquire through a dialed client of your own member instead.
type Proxy struct {
	slot    *Slot
	sweeper *Sweeper
}

// NewProxy wraps s for remote clients. lease bounds each hold (0 means
// DefaultLease, negative disables expiry). Callers must Close it.
func NewProxy(s *Session, lease time.Duration) *Proxy {
	if lease == 0 {
		lease = DefaultLease
	}
	sl := NewSlot(s, lease, DefaultCohortBudget, nil)
	return &Proxy{slot: sl, sweeper: StartSweeper(s.n.clk, SweepCadence(lease), sl)}
}

// Close stops the proxy's sweeper. Holds and requests still outstanding
// are left to the session's own teardown.
func (p *Proxy) Close() { p.sweeper.Stop() }

// single rejects named resources.
func (p *Proxy) single(resource string) error {
	if resource != "" {
		return fmt.Errorf("runtime: member node %d serves a single mutex, not resource %q (dial a lock service for named resources)", p.slot.s.ID(), resource)
	}
	return nil
}

// Acquire locks the proxied mutex on behalf of one remote client,
// queueing behind the member's other clients, and returns the grant's
// fencing token plus the hold's lease deadline.
func (p *Proxy) Acquire(ctx context.Context, resource string) (uint64, time.Time, error) {
	if err := p.single(resource); err != nil {
		return 0, time.Time{}, err
	}
	g, err := p.slot.Acquire(ctx, "")
	return g.Generation, g.Expires, err
}

// AcquireRun is Acquire for a connection with more callers queued behind
// this one: the slot's run (see Slot.AcquireRun), first fence returned.
func (p *Proxy) AcquireRun(ctx context.Context, resource string) (uint64, time.Time, int, error) {
	if err := p.single(resource); err != nil {
		return 0, time.Time{}, 0, err
	}
	g, run, err := p.slot.AcquireRun(ctx, "")
	return g.Generation, g.Expires, run, err
}

// TryAcquire locks the proxied mutex only if no other client holds or
// awaits it through this proxy and the grant needs no waiting.
func (p *Proxy) TryAcquire(resource string) (uint64, time.Time, bool, error) {
	if err := p.single(resource); err != nil {
		return 0, time.Time{}, false, err
	}
	g, ok, err := p.slot.TryAcquire("")
	return g.Generation, g.Expires, ok, err
}

// Release unlocks the proxied mutex. fence identifies the exact hold
// (Grant.Generation); fence 0 releases whatever hold is current. A hold
// the sweeper already reclaimed reports ErrLeaseExpired once; a release
// of nothing, or of a stale fence, reports ErrNotHeld.
func (p *Proxy) Release(resource string, fence uint64) error {
	if err := p.single(resource); err != nil {
		return err
	}
	return p.slot.Release("", fence)
}

// Shards tells dialed clients that every resource shares the one mutex
// (part of the transport layer's optional run capability).
func (p *Proxy) Shards() int { return 1 }

// ReleaseRun ends a run by its last fence; see Slot.ReleaseRun.
func (p *Proxy) ReleaseRun(resource string, last uint64, used int, more bool) error {
	if err := p.single(resource); err != nil {
		return err
	}
	return p.slot.ReleaseRun("", last, used, more)
}
