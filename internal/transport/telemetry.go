package transport

import (
	"dagmutex/internal/telemetry"
)

// This file publishes the client-tier admission counters onto a
// telemetry registry. The gauges are pull-based — each scrape takes one
// consistent ClientStats snapshot per family — so serving /metrics
// costs the admission path nothing.
//
// Exported metric families (one process has one client edge, so these
// carry no label):
//
//	dagmutex_client_conns           gauge    client connections open
//	dagmutex_client_inflight        gauge    admitted, not yet answered
//	dagmutex_client_admitted_total  counter  requests admitted
//	dagmutex_client_answered_total  counter  admitted requests completed
//	dagmutex_client_shed_total      counter  requests shed, by reason
//	                                         (label reason="depth"|"rate")
//	dagmutex_client_frames_written_total   counter  response frames written
//	dagmutex_client_write_batches_total    counter  write calls that carried them
//	dagmutex_client_runs_total                 counter  fence runs granted (RespRun answers)
//	dagmutex_client_run_fences_reserved_total  counter  fences those runs reserved
//	dagmutex_client_run_fences_used_total      counter  fences their releases reported handed out
//
// frames_written / write_batches is the response writer's coalescing
// ratio: 1 when every response found its connection idle and was written
// on its own, higher when responses piled up behind a busy write and
// left together in one writev. run_fences_used / run_fences_reserved is
// the runs' useful-outcomes ratio: 1 when every reserved fence reached a
// caller, lower when runs end early (the connection's queue drained, or
// the lease rule stopped it) and skip the rest. frames_written /
// run_fences_used is what a hot key costs in responses per grant: 2 with
// no runs (a grant and a release answer each), about 2/9 with full ones.
func (a *admission) register(reg *telemetry.Registry) {
	gauge := func(name string, v func(ClientStats) int64) {
		reg.Gauge(name, func() float64 { return float64(v(a.stats())) })
	}
	gauge("dagmutex_client_conns", func(s ClientStats) int64 { return s.Conns })
	gauge("dagmutex_client_inflight", func(s ClientStats) int64 { return s.Inflight })
	gauge("dagmutex_client_admitted_total", func(s ClientStats) int64 { return s.Admitted })
	gauge("dagmutex_client_answered_total", func(s ClientStats) int64 { return s.Answered })
	gauge(`dagmutex_client_shed_total{reason="depth"}`, func(s ClientStats) int64 { return s.ShedDepth })
	gauge(`dagmutex_client_shed_total{reason="rate"}`, func(s ClientStats) int64 { return s.ShedRate })
	reg.Gauge("dagmutex_client_frames_written_total", func() float64 { return float64(a.writes.frames.Load()) })
	reg.Gauge("dagmutex_client_write_batches_total", func() float64 { return float64(a.writes.batches.Load()) })
	reg.Gauge("dagmutex_client_runs_total", func() float64 { return float64(a.runs.Load()) })
	reg.Gauge("dagmutex_client_run_fences_reserved_total", func() float64 { return float64(a.runReserved.Load()) })
	reg.Gauge("dagmutex_client_run_fences_used_total", func() float64 { return float64(a.runUsed.Load()) })
}

// Register publishes the gateway's admission counters on reg; see the
// metric families above.
func (g *ClientGateway) Register(reg *telemetry.Registry) { g.adm.register(reg) }
