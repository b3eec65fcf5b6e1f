package main

import (
	"fmt"
	"io"

	"dagmutex/internal/core"
	"dagmutex/internal/mutex"
	"dagmutex/internal/topology"
)

// chaosDemo renders the defining failure scenario end to end: the token
// holder crashes mid-critical-section with a waiter queued behind it,
// the survivors' failure detectors report the death, and the recovery —
// probe round, token regeneration with its fencing jump, reorientation —
// serves the waiter.
func chaosDemo(w io.Writer) error {
	fmt.Fprintln(w, "Crash recovery on the five-node star (center 1), token at node 1")
	fmt.Fprintln(w, "(the scenario the thesis's fail-free model excludes)")
	fmt.Fprintln(w)
	// Recovery events render through the shared trace vocabulary
	// (core.Event.Trace), so the chaos replay reads exactly like a live
	// trace observer's stream.
	r, err := newReplayer(w, topology.Star(5), 1,
		core.WithObserver(core.RecoveryEvents, func(e core.Event) { fmt.Fprintf(w, "  event: %s\n", e.Trace()) }))
	if err != nil {
		return err
	}
	r.show("initial configuration: node 1 holds the token")

	if err := r.nodes[1].Request(); err != nil {
		return err
	}
	r.show("node 1 enters its critical section (grant generation 1)")

	if err := r.nodes[3].Request(); err != nil {
		return err
	}
	if err := r.drain(); err != nil {
		return err
	}
	r.show("node 3 requests; the holder stores it: FOLLOW_1 = 3")

	r.crash(1)
	r.show("node 1 CRASHES mid-critical-section — the token dies with it")

	fmt.Fprintln(r.w, "the survivors' failure detectors suspect node 1:")
	for _, id := range []mutex.ID{2, 3, 4, 5} {
		if err := r.nodes[id].PeerDown(1); err != nil {
			return err
		}
	}
	if err := r.drain(); err != nil {
		return err
	}
	fmt.Fprintln(r.w)
	r.show("recovery complete: node 5 (highest survivor) coordinated; the probe found no token, " +
		"so one was REGENERATED with a fencing jump and the rebuilt FOLLOW chain granted node 3")
	fmt.Fprintf(w, "node 3's grant carries fencing generation %d — strictly above every generation\n", r.grants[3])
	fmt.Fprintln(w, "the dead holder ever issued, so downstream stores reject the dead node's writes.")
	fmt.Fprintln(w)

	if err := r.nodes[3].Release(); err != nil {
		return err
	}
	if err := r.nodes[2].Request(); err != nil {
		return err
	}
	if err := r.drain(); err != nil {
		return err
	}
	r.show("life goes on: node 3 released, node 2 acquired through the rebuilt DAG")
	fmt.Fprintf(w, "node 2's grant generation: %d\n", r.grants[2])
	return nil
}
