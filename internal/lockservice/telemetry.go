package lockservice

import (
	"fmt"

	"dagmutex/internal/telemetry"
)

// This file is the service's registration onto a telemetry.Registry:
// which instruments a running lock service exports and under which
// names. Everything here follows the split the telemetry package is
// built around — push only what must be observed per event (the wait
// and hold histograms, wait-free atomics), pull everything that already
// exists as a counter (gauges evaluated at scrape time, so the grant
// hot path pays nothing for them). The wait histogram exists on every
// shard, since Stats summarizes it; registering only makes it the
// registry's, under the name below, so /metrics and Stats read one
// instrument. A registry shared by two services shares it too, as
// Registry.Histogram does any name, and each one's Wait then counts both.
//
// Exported metric families, one time series per shard
// (label shard="0".."M-1"):
//
//	dagmutex_grants_total        counter  successful acquires
//	dagmutex_releases_total      counter  successful releases
//	dagmutex_regrants_total      counter  cohort handoffs (no token move)
//	dagmutex_expired_total       counter  leases reclaimed by the sweeper
//	dagmutex_recoveries_total    counter  failure-recovery events observed
//	dagmutex_fence               gauge    highest fencing token granted
//	dagmutex_messages_total      counter  protocol messages exchanged
//	dagmutex_msgs_per_grant      gauge    messages / grants (the paper's metric)
//	dagmutex_hops_per_grant      gauge    mean request-path length
//	dagmutex_acquire_wait_seconds  summary  acquire latency p50/p95/p99
//	dagmutex_hold_duration_seconds summary  grant-to-release time p50/p95/p99
func (sh *shard) register(reg *telemetry.Registry) {
	l := fmt.Sprintf(`{shard="%d"}`, sh.index)
	sh.wait = reg.Histogram("dagmutex_acquire_wait_seconds"+l, telemetry.Seconds)
	sh.holdHist = reg.Histogram("dagmutex_hold_duration_seconds"+l, telemetry.Seconds)
	counter := func(name string, v func() int64) {
		reg.Gauge(name+l, func() float64 {
			sh.mu.Lock()
			defer sh.mu.Unlock()
			return float64(v())
		})
	}
	counter("dagmutex_grants_total", func() int64 { return sh.grants })
	counter("dagmutex_releases_total", func() int64 { return sh.releases })
	counter("dagmutex_regrants_total", func() int64 { return sh.regrants })
	counter("dagmutex_expired_total", func() int64 { return sh.expired })
	counter("dagmutex_recoveries_total", func() int64 { return sh.recoveries })
	counter("dagmutex_fence", func() int64 { return int64(sh.fence) })
	reg.Gauge("dagmutex_messages_total"+l, func() float64 {
		return float64(sh.cluster.Messages())
	})
	reg.Gauge("dagmutex_msgs_per_grant"+l, func() float64 {
		msgs := sh.cluster.Messages()
		sh.mu.Lock()
		grants := sh.grants
		sh.mu.Unlock()
		if grants == 0 {
			return 0
		}
		return float64(msgs) / float64(grants)
	})
	reg.Gauge("dagmutex_hops_per_grant"+l, func() float64 {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if sh.grants == 0 {
			return 0
		}
		return float64(sh.hops) / float64(sh.grants)
	})
}

// Telemetry returns the registry the service was opened with (or the
// one Config.DebugAddr installed), or nil when the service runs
// uninstrumented. Serve it over HTTP with telemetry.Serve.
func (s *Service) Telemetry() *telemetry.Registry { return s.cfg.Telemetry }

// DebugAddr returns the bound address of the debug endpoints
// (Config.DebugAddr), or "" when they are not being served.
func (s *Service) DebugAddr() string {
	if s.debug == nil {
		return ""
	}
	return s.debug.Addr()
}
