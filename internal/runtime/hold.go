package runtime

import (
	"fmt"
	"slices"
	"time"

	"dagmutex/internal/mutex"
)

// Hold is the hold machine: every decision a Slot makes, with no lock,
// goroutine, channel, clock read or atomic. It has one method per entry
// point — Take, Admit, Release, Sweep, Left and Abandon — each given the
// waiter count and instant its driver read where it needs them, each
// calling the driver's HoldSession directly, and each leaving only what
// the driver must do once it has let go of its lock: the free (a Done),
// or the refusal (an error). A Slot steps it under the slot lock; the
// dialing side's lane checker steps the same machine against a stub
// session.
type Hold struct {
	node   mutex.ID
	lease  time.Duration // <= 0: holds never expire
	budget int           // max consecutive regrants; <= 0 disables them
	HoldState
}

// HoldState is all a Hold's entry points change, exported so that a
// checker can keep it encoded.
type HoldState struct {
	Held      bool
	Key       string
	Fence     uint64    // of a run: its last fence
	Run       int       // fences reserved under the hold; 1 unless a run reserved more
	Expires   time.Time // lease deadline; zero when leases are disabled
	GrantedAt time.Time
	// Pending marks a pipelined handoff: a release already regranted the
	// section or re-issued the session's request, so the next taker of the
	// slot awaits that grant instead of requesting. If every waiter gives
	// up first, the last to leave adopts it once it has landed (Left), and
	// a sweep adopts one that was still traveling.
	Pending bool
	// Streak counts consecutive regrants since the token last took the
	// protocol path — handoffs to the next waiter and fences reserved for
	// a run alike — so that remote requesters are bypassed at most budget
	// times.
	Streak int
	// Abandoned marks a failed acquire whose request stayed outstanding
	// (the paper's model has no cancellation): the slot stays taken until
	// a sweep has drained and released the grant.
	Abandoned bool
	// Expired remembers reclaimed holds, so that each late release can be
	// told from a release of something never held, even after the slot
	// moved on and when one key expired several times in a row. Reporting
	// a marker removes it; beyond maxExpiredMarkers the oldest is dropped.
	Expired []HoldMarker
}

// HoldMarker is one reclaimed hold: its key, fence and fences reserved.
type HoldMarker struct {
	Key   string
	Fence uint64
	Run   int
}

// HoldSession is what a Hold asks of its driver: the session calls, and
// the claim of a landed grant. A Slot's is its session and semaphore.
type HoldSession interface {
	// Regrant passes the section to a new grant without the token
	// leaving, and reports whether it could; with take it takes that
	// grant at once and returns its fence.
	Regrant(take bool) (uint64, bool)
	// Claim takes a landed grant without blocking, the slot first when
	// sem is set, and reports whether it did.
	Claim(sem bool) (Grant, bool)
	// Release releases the section, and requests it again when again is
	// set.
	Release(again bool) error
}

// Done is what an entry point leaves its driver to do after its lock:
// tell the observer End when Report is set, free the slot when Free is,
// and then, when Recheck is and nobody waits, step Left. The driver owns
// it and hands the entry point a zero one to fill in, so that the end
// record is written once, where the driver reads it.
type Done struct {
	End                   HoldEnd
	Report, Free, Recheck bool
}

// NewHold is the machine of a slot over node: lease bounds each hold
// (<= 0 disables expiry) and budget consecutive regrants (<= 0 disables
// them).
func NewHold(node mutex.ID, lease time.Duration, budget int) Hold {
	return Hold{node: node, lease: lease, budget: budget}
}

// Take is an acquirer that has taken the slot. It reports whether a
// pipelined grant is owed to it, to await instead of requesting; a try
// claims that grant at once if it has landed (ok), and leaves one still
// traveling pending.
func (h *Hold) Take(s HoldSession, try bool) (g Grant, pipelined, ok bool) {
	if pipelined = h.Pending; pipelined && try {
		if g, ok = s.Claim(false); !ok {
			return g, true, false
		}
	}
	h.Pending = false
	return g, pipelined, ok
}

// Admit records the hold of key that g grants, first reserving, when
// run is set, every fence the cohort budget has left. It sets g's lease
// deadline and returns how many fences the hold covers.
func (h *Hold) Admit(s HoldSession, key string, g *Grant, run bool) int {
	if h.lease > 0 {
		g.Expires = g.At.Add(h.lease)
	}
	last, n := g.Generation, 1
	for run && h.Streak < h.budget {
		// Each reserved fence is a regrant nobody collects: the section
		// never leaves the slot, only the generation advances.
		f, ok := s.Regrant(true)
		if !ok {
			break
		}
		last, n = f, n+1
		h.Streak++
	}
	h.Held, h.Key, h.Fence, h.Run, h.Expires, h.GrantedAt = true, key, last, n, g.Expires, g.At
	return n
}

// Abandon is an acquire that failed with its request still outstanding.
func (h *Hold) Abandon() { h.Abandoned = true }

// Release is Slot.ReleaseRun's decision. A failed protocol release
// means the cluster is broken: the slot then stays taken.
func (h *Hold) Release(s HoldSession, key string, fence uint64, used int, more bool, waiters int, d *Done) (err error) {
	if !h.Held || h.Key != key || (fence != 0 && h.Fence != fence) {
		return h.refuse(key, fence, used, d)
	}
	used = max(min(used, h.Run), 1)
	// A run that ended early hands its unused share of the cohort budget
	// back: the fences are skipped for good, but nobody was bypassed for
	// them.
	unused := h.Run - used
	h.Streak -= unused
	h.clear(&d.End)
	d.End.Fence, d.End.Run = d.End.Fence-uint64(unused), used
	if fence == 0 {
		h.Expired = slices.DeleteFunc(h.Expired, func(m HoldMarker) bool { return m.Key == key })
	}
	if (more || waiters > 0) && !h.Pending && !h.Abandoned {
		// Cohort handoff first: the next waiter is local, so the protocol
		// node never leaves its critical section and only the fencing
		// generation advances. Mid-recovery or without the capability,
		// the pipelined handoff instead: the re-REQUEST rides the outgoing
		// PRIVILEGE (or the same batched write), so the successor's
		// request is racing back before any waiter even wakes.
		if h.Streak < h.budget {
			if _, ok := s.Regrant(false); ok {
				h.Streak++
				h.Pending = true
				// The waiters it was for may give up while the slot is still
				// taken, when they cannot adopt the grant: unless the release
				// said an acquire is on its way, look again once it is free.
				d.End.Regranted, d.Report, d.Free, d.Recheck = true, true, true, !more
				return nil
			}
		}
		h.Streak = 0
		if err = s.Release(true); err == nil {
			h.Pending = true
		}
	} else {
		h.Streak = 0
		err = s.Release(false)
	}
	if err != nil {
		return fmt.Errorf("release node %d: %w", h.node, err)
	}
	d.Report, d.Free = true, true
	return nil
}

// refuse is the refusal of a release that names no current hold. One
// that names a reclaimed hold reports the run's handoffs it tells of.
func (h *Hold) refuse(key string, fence uint64, used int, d *Done) error {
	i := slices.IndexFunc(h.Expired, func(m HoldMarker) bool { return m.Key == key && (fence == 0 || m.Fence == fence) })
	switch {
	case i >= 0:
		m := h.Expired[i]
		h.Expired = slices.Delete(h.Expired, i, i+1)
		if used = min(used, m.Run); used > 1 {
			d.End, d.Report = HoldEnd{Node: h.node, Key: key, Fence: m.Fence - uint64(m.Run-used), Run: used, Late: true}, true
		}
		return fmt.Errorf("node %d released %q after its lease ran out (fence %d): %w", h.node, key, m.Fence, ErrLeaseExpired)
	case !h.Held:
		return fmt.Errorf("node %d does not hold %q: %w", h.node, key, ErrNotHeld)
	}
	return fmt.Errorf("node %d holds %q under fence %d, not %q under fence %d: %w", h.node, h.Key, h.Fence, key, fence, ErrNotHeld)
}

// Sweep is Slot.Sweep's decision.
func (h *Hold) Sweep(s HoldSession, now time.Time, waiters int, d *Done) {
	switch {
	case h.Pending && waiters == 0:
		h.Left(s, 0, d)
	case h.Abandoned:
		if _, ok := s.Claim(false); ok {
			h.Abandoned = false
			h.reclaim(s, d, false)
		}
	case h.Held && !h.Expires.IsZero() && now.After(h.Expires):
		if len(h.Expired) >= maxExpiredMarkers {
			h.Expired = slices.Delete(h.Expired, 0, 1)
		}
		h.Expired = append(h.Expired, HoldMarker{h.Key, h.Fence, h.Run})
		h.clear(&d.End)
		d.End.Expired = true
		h.reclaim(s, d, true)
	}
}

// Left is the last waiter giving up: a landed grant it leaves behind is
// adopted as soon as nobody is left to claim it, not on the next sweep
// (up to 1s, while every other member's request for the shard waits
// too). A grant still traveling stays for the sweep. A releaser that
// said an acquire is on its way leaves its own handoff for that acquire,
// but the last waiter to give up adopts any landed grant, a promised one
// included: the promised acquire, arriving later, requests afresh.
func (h *Hold) Left(s HoldSession, waiters int, d *Done) {
	if !h.Pending || waiters != 0 {
		return
	}
	// The slot is taken as an acquirer would take it, without blocking:
	// a concurrent acquire wins the race and claims the grant itself.
	if _, ok := s.Claim(true); ok {
		h.Pending = false
		h.reclaim(s, d, false)
	}
}

// reclaim releases a grant nobody holds any more, then frees the slot,
// reporting d's end record if report is set, unless that release failed.
func (h *Hold) reclaim(s HoldSession, d *Done, report bool) {
	if s.Release(false) == nil {
		h.Streak = 0
		d.Free, d.Report = true, report
	}
}

// clear forgets the current hold, writing its end record to e.
func (h *Hold) clear(e *HoldEnd) {
	e.Node, e.Key, e.Fence, e.Since, e.Run = h.node, h.Key, h.Fence, h.GrantedAt, 1
	h.Held, h.Key, h.Fence, h.Run, h.Expires, h.GrantedAt = false, "", 0, 0, time.Time{}, time.Time{}
}
