package simharness

import (
	"time"

	"dagmutex/internal/mutex"
	"dagmutex/internal/sim"
)

// Fault schedules are part of a run's input: every crash, partition and
// detector verdict is a virtual-clock event placed before Run, so the
// same schedule replays identically under the same seed. The semantics
// mirror the live stack's failure path. A crash silences the member —
// in-flight messages to it are dropped on delivery (a token in flight
// to the victim dies with it, forcing a regeneration), and its driver
// stops. Detection is not instantaneous: each survivor receives its
// PeerDown verdict after the configured detect latency plus a small
// seeded jitter, exactly as a heartbeat detector staggers across a real
// cluster — which is what exercises the coordinator races (a crash
// landing mid-PROBE, a coordinator dying mid-collection) the epoch
// recovery exists for.

// verdictJitter spreads one fault's verdicts across the survivors, so
// recovery never starts in lockstep.
const verdictJitter = 2 * time.Millisecond

// ScheduleCrash schedules member victim to fail-stop at virtual time at
// (measured from the start of the run), with every survivor's PeerDown
// verdict landing detect plus jitter later. Call before Run.
func (h *Harness) ScheduleCrash(at time.Duration, victim mutex.ID, detect time.Duration) {
	h.c.Clock().Arm(at, func() {
		if !h.c.Crash(victim) {
			return
		}
		for _, id := range h.c.IDs() {
			if id != victim && !h.c.Down(id) {
				h.c.PeerDownAfter(h.verdictDelay(detect), id, victim)
			}
		}
	})
}

// SchedulePartition cuts the members in isolate off from the rest of
// the cluster at virtual time at: sends across the cut are dropped from
// then on (messages already in flight still arrive), and after detect
// plus jitter each side receives PeerDown verdicts for every member of
// the other. The isolated minority loses its quorum and freezes instead
// of minting a token — the split-brain gate the battery asserts — while
// the majority excises the minority and carries on. The cut is
// permanent for the run (members do not rejoin); schedule a second,
// disjoint partition to exercise repeated shrinking.
func (h *Harness) SchedulePartition(at time.Duration, isolate []mutex.ID, detect time.Duration) {
	cut := append([]mutex.ID(nil), isolate...)
	h.c.Clock().Arm(at, func() {
		side := h.c.Partition(cut...)
		for _, observer := range h.c.IDs() {
			if h.c.Down(observer) {
				continue
			}
			for _, peer := range h.c.IDs() {
				if peer == observer || h.c.Down(peer) || (h.c.Side(peer) == side) == (h.c.Side(observer) == side) {
					continue
				}
				h.c.PeerDownAfter(h.verdictDelay(detect), observer, peer)
			}
		}
	})
}

// verdictDelay draws one verdict's latency: detect plus seeded jitter.
func (h *Harness) verdictDelay(detect time.Duration) sim.Time {
	return sim.Time(detect + time.Duration(h.rng.Int63n(int64(verdictJitter))))
}
