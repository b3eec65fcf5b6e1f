package transport

import (
	"dagmutex/internal/telemetry"
)

// This file publishes the transport's counters onto a telemetry
// registry: the client-tier admission counters of a listener, and a TCP
// member's link write counters. The gauges are pull-based — each scrape
// takes one consistent ClientStats snapshot per family — so serving
// /metrics costs the admission and write paths nothing.
//
// Exported metric families (one process has one client edge and one
// member host, so these carry no label):
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
//
// A TCPHost additionally exports what its member links wrote:
//
//	dagmutex_link_frames_total  counter  member frames written to peers
//	dagmutex_link_writes_total  counter  write calls that carried them
//
// link_frames / link_writes is the member links' coalescing ratio: a
// release's PRIVILEGE and the re-REQUEST behind it leaving in one writev
// read 2, a lone message 1. (Race builds write frame by frame — see
// peerConn.writev — and read 1 throughout.)
//
// current returns the gate the gauges read at scrape time, or nil for
// "none yet" (every family then reads 0): a TCPHost's gate appears with
// ServeClients and is replaced by SetClientQueue.
func registerAdmission(reg *telemetry.Registry, current func() *admission) {
	gauge := func(name string, v func(*admission) int64) {
		reg.Gauge(name, func() float64 {
			if a := current(); a != nil {
				return float64(v(a))
			}
			return 0
		})
	}
	stat := func(name string, v func(ClientStats) int64) {
		gauge(name, func(a *admission) int64 { return v(a.stats()) })
	}
	stat("dagmutex_client_conns", func(s ClientStats) int64 { return s.Conns })
	stat("dagmutex_client_inflight", func(s ClientStats) int64 { return s.Inflight })
	stat("dagmutex_client_admitted_total", func(s ClientStats) int64 { return s.Admitted })
	stat("dagmutex_client_answered_total", func(s ClientStats) int64 { return s.Answered })
	stat(`dagmutex_client_shed_total{reason="depth"}`, func(s ClientStats) int64 { return s.ShedDepth })
	stat(`dagmutex_client_shed_total{reason="rate"}`, func(s ClientStats) int64 { return s.ShedRate })
	gauge("dagmutex_client_frames_written_total", func(a *admission) int64 { return a.writes.frames.Load() })
	gauge("dagmutex_client_write_batches_total", func(a *admission) int64 { return a.writes.batches.Load() })
	gauge("dagmutex_client_runs_total", func(a *admission) int64 { return a.runs.Load() })
	gauge("dagmutex_client_run_fences_reserved_total", func(a *admission) int64 { return a.runReserved.Load() })
	gauge("dagmutex_client_run_fences_used_total", func(a *admission) int64 { return a.runUsed.Load() })
}

// Register publishes the gateway's admission counters on reg; see the
// metric families above.
func (g *ClientGateway) Register(reg *telemetry.Registry) {
	registerAdmission(reg, func() *admission { return g.adm })
}

// Register publishes the host's counters on reg: the member links' write
// counters, and the admission and fence-run counters of the dialed
// clients it serves (zero until ServeClients installs a backend). See
// the metric families above.
func (h *TCPHost) Register(reg *telemetry.Registry) {
	reg.Gauge("dagmutex_link_frames_total", func() float64 { return float64(h.linkWrites.frames.Load()) })
	reg.Gauge("dagmutex_link_writes_total", func() float64 { return float64(h.linkWrites.batches.Load()) })
	registerAdmission(reg, func() *admission {
		if box := h.clients.Load(); box != nil {
			return box.adm
		}
		return nil
	})
}
