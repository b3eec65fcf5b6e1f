package main

import (
	"fmt"
	"io"

	"dagmutex/internal/core"
	"dagmutex/internal/telemetry"
	"dagmutex/internal/topology"
)

// liveDemo replays a contended scenario with the runtime's live trace
// observer attached: instead of narrating state tables after the fact,
// every line is a structured telemetry.TraceEvent exactly as a
// WithTraceObserver callback receives it in production — the offline
// tooling and the live stream share one vocabulary. The causal chain of
// each grant (REQUEST, the FORWARDs it took, the PRIVILEGE dispatch,
// the GRANT with its fence) reads straight down the page.
//
// liveDemo runs the Figure 2 line with the trace stream on: a remote
// acquire across the whole line, a competing request that queues, and
// the releases that serve both.
func liveDemo(w io.Writer) error {
	fmt.Fprintln(w, "Live trace stream on the line 1-2-3-4, token at node 1")
	fmt.Fprintln(w, "(every line is one telemetry.TraceEvent, as WithTraceObserver delivers them)")
	r, err := newReplayer(w, topology.Line(4), 1,
		core.WithTraceObserver(func(e telemetry.TraceEvent) { fmt.Fprintf(w, "  %s\n", e) }))
	if err != nil {
		return err
	}

	for _, s := range []step{
		{"node 4 acquires (three hops from the token):", func() error { return r.request(4) }},
		{"node 2 acquires while node 4 holds (the request queues):", func() error { return r.request(2) }},
		{"node 4 releases; the token travels to the waiter:", func() error { return r.release(4) }},
		{"node 2 releases and keeps the token; final state:", func() error { return r.release(2) }},
	} {
		fmt.Fprintln(w)
		fmt.Fprintln(w, s.caption)
		if err := s.action(); err != nil {
			return err
		}
		if err := r.drain(); err != nil {
			return err
		}
	}
	r.table()
	fmt.Fprintln(w)
	return nil
}
