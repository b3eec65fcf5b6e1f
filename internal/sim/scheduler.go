// Package sim is the repository's one discrete-event simulator: a
// reliable, per-link-FIFO message network (Network) whose every delivery
// — and every driver step, auto-release and detector verdict the layers
// above arm through it — is a pooled event on one vclock.Virtual. The
// thesis experiments, the nine-protocol conformance batteries and
// internal/simharness's thousand-node fault runs all execute on it (hosted
// by internal/cluster, which owns the grant checker), so message counts
// and synchronization delays are exact and reproducible.
//
// Everything here runs on the goroutine that advances the clock, so the
// events go on the clock's owner-only timeline (Virtual.Arm): no timer,
// no handle and no lock per event, and the time is one atomic load. What
// a simulated event costs is a queue pop, the network's bookkeeping and
// the protocol's own step.
//
// Time is measured in ticks, and one tick is one nanosecond of the
// virtual clock, so vclock durations and sim.Time are the same numbers.
// The thesis experiments use a unit latency of Hop ticks per message,
// which makes "synchronization delay in messages" (thesis §6.3) equal to
// elapsed virtual time divided by Hop; the fault runs speak time.Duration
// and draw a seeded delay per send. Both are a LatencyModel.
package sim

import "dagmutex/internal/sched"

// Time is a point in virtual time, in ticks.
type Time = sched.Time

// Hop is the conventional per-message latency used by experiments, chosen
// so that sub-hop tie-breaking adjustments (FIFO clamping) never add up to
// a full hop.
const Hop = sched.Hop
