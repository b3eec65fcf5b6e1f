package simharness

import (
	"fmt"
	"time"

	"dagmutex/internal/mutex"
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
	h.clk.AfterFunc(at, func() {
		if !h.member(victim) {
			h.failf("crash of unknown member %d at %v", victim, h.clk.Elapsed())
			return
		}
		if h.down[victim] {
			return
		}
		h.down[victim] = true
		h.leaveCS(victim) // a hold dies with its holder; recovery regenerates the token
		h.driving[victim] = false
		for _, id := range h.ids {
			if id == victim || h.down[id] {
				continue
			}
			d := detect + time.Duration(h.rng.Int63n(int64(verdictJitter)))
			h.arm(d, evVerdict, id, victim)
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
	h.clk.AfterFunc(at, func() {
		side := len(h.maxFence)
		h.maxFence = append(h.maxFence, 0)
		for _, id := range cut {
			if !h.member(id) {
				h.failf("partition of unknown member %d at %v", id, h.clk.Elapsed())
				continue
			}
			h.side[id] = side
		}
		for _, observer := range h.ids {
			if h.down[observer] {
				continue
			}
			for _, peer := range h.ids {
				if peer == observer || h.down[peer] || (h.side[peer] == side) == (h.side[observer] == side) {
					continue
				}
				d := detect + time.Duration(h.rng.Int63n(int64(verdictJitter)))
				h.arm(d, evVerdict, observer, peer)
			}
		}
	})
}

// member reports whether id names a member of this cluster.
func (h *Harness) member(id mutex.ID) bool { return id >= 1 && int(id) < len(h.nodes) }

// verdictDown delivers one failure-detector verdict, unless the
// observer itself died (or was partitioned away from the suspect's
// side later — a verdict about an unreachable peer is still valid).
func (h *Harness) verdictDown(observer, dead mutex.ID) {
	if h.down[observer] {
		return
	}
	if err := h.nodes[observer].PeerDown(dead); err != nil {
		h.failf("verdict PeerDown(%d) at node %d at %v: %v", dead, observer, h.clk.Elapsed(), err)
	}
}

// Alive reports the members not crashed and still in the main
// partition, ascending.
func (h *Harness) Alive() []mutex.ID {
	var out []mutex.ID
	for _, id := range h.ids {
		if !h.down[id] && h.side[id] == 0 {
			out = append(out, id)
		}
	}
	return out
}

// Coordinator returns the member that would coordinate a recovery in
// the current main partition: the highest-ID survivor. Fault schedules
// use it to aim "kill the coordinator mid-collection" scenarios.
func (h *Harness) Coordinator() mutex.ID {
	ids := h.Alive()
	if len(ids) == 0 {
		return mutex.Nil
	}
	return ids[len(ids)-1]
}

// String renders the schedule-relevant cluster state, for failure
// messages in tests.
func (h *Harness) String() string {
	return fmt.Sprintf("simharness{nodes=%d topo=%s seed=%d grants=%d msgs=%d}",
		len(h.ids), h.tree.Name(), h.cfg.Seed, h.grants, h.msgs)
}
