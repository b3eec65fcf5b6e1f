// Package telemetry is the live-observability layer: an allocation-free
// metrics registry the protocol hot path can feed, a structured trace
// event carrying the causal identity of every grant, and an HTTP debug
// server exposing both (Prometheus text /metrics plus /debug/pprof).
//
// The repo could already *analyze* runs after the fact (internal/metrics
// computes the paper's msgs/entry and sync-delay tables from sim
// recordings); this package is the running system's counterpart. Two
// constraints shape it. First, the hot path has a committed 0-allocs/op
// budget (see internal/transport's alloc tests), so every instrument is
// a fixed-size structure updated with atomics: counters are single
// atomic.Int64s, histograms use fixed power-of-two buckets indexed with
// one bits.Len64, and gauges cost nothing at record time because they
// are pull-based — a closure evaluated only when /metrics is scraped.
// Second, distributions, not means, are the story (the Lavault
// average-case analysis makes the same point about path lengths), so
// histograms snapshot to p50/p95/p99, not just a sum.
//
// Metric names carry their Prometheus label set inline, e.g.
// "dagmutex_grants_total{shard=\"3\"}": registration happens once at
// setup, so the name is built once and the scrape path just prints it.
package telemetry

import (
	"fmt"
	"io"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Scales divide raw observed values on export. Histograms observe raw
// int64s (typically nanoseconds); the scale maps them to the exported
// unit, so a wait histogram observed in nanoseconds exports seconds.
const (
	// Seconds scales nanosecond observations to seconds on export.
	Seconds = float64(time.Second)
	// Units exports observations unscaled (hop counts, queue depths).
	Units = 1.0
)

// Registry is a set of named instruments with a stable, insertion-ordered
// Prometheus text rendering. Registration is cheap but locked; do it at
// setup. The instruments themselves are lock-free and safe for concurrent
// use from any goroutine.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]any
	entries []regEntry
}

type regEntry struct {
	name string
	m    any // *Counter, *Histogram, or gauge func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]any)}
}

// Counter returns the counter registered under name, creating it on
// first use. Name collisions return the existing counter, so independent
// components can share one instrument by name.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if c, ok := m.(*Counter); ok {
			return c
		}
		panic(fmt.Sprintf("telemetry: %q already registered as %T", name, m))
	}
	c := &Counter{}
	r.byName[name] = c
	r.entries = append(r.entries, regEntry{name: name, m: c})
	return c
}

// Gauge registers a pull-based gauge: fn is evaluated only when the
// registry is scraped, so a gauge over an existing counter or mutex-held
// snapshot costs the hot path nothing at all. fn must be safe to call
// from the scrape goroutine.
func (r *Registry) Gauge(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; ok {
		panic(fmt.Sprintf("telemetry: gauge %q already registered", name))
	}
	r.byName[name] = fn
	r.entries = append(r.entries, regEntry{name: name, m: fn})
}

// Histogram returns the histogram registered under name, creating it on
// first use with the given export scale (Seconds for nanosecond
// durations, Units for raw counts).
func (r *Registry) Histogram(name string, scale float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if h, ok := m.(*Histogram); ok {
			return h
		}
		panic(fmt.Sprintf("telemetry: %q already registered as %T", name, m))
	}
	h := NewHistogram(scale)
	r.byName[name] = h
	r.entries = append(r.entries, regEntry{name: name, m: h})
	return h
}

// WritePrometheus renders every instrument in registration order as
// Prometheus text exposition (version 0.0.4). Counters and gauges print
// one sample; histograms print a summary: one sample per quantile plus
// _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	entries := make([]regEntry, len(r.entries))
	copy(entries, r.entries)
	r.mu.Unlock()
	for _, e := range entries {
		switch m := e.m.(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "%s %d\n", e.name, m.Value()); err != nil {
				return err
			}
		case func() float64:
			if _, err := fmt.Fprintf(w, "%s %g\n", e.name, m()); err != nil {
				return err
			}
		case *Histogram:
			if err := m.write(w, e.name); err != nil {
				return err
			}
		}
	}
	return nil
}

// Counter is a monotonically increasing counter. The zero value is ready
// to use; obtain shared instances through Registry.Counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// histBuckets is the fixed bucket count: bucket i holds observations
// whose bit length is i, i.e. values in [2^(i-1), 2^i); bucket 0 holds
// exactly the value 0. 64 buckets cover the whole non-negative int64
// range, so Observe never needs a range check beyond clamping negatives.
const histBuckets = 64

// Histogram is a fixed-bucket histogram over non-negative int64
// observations (typically nanoseconds). Observe is wait-free: one atomic
// add into the power-of-two bucket selected by bits.Len64, plus count
// and sum. Quantile snapshots resolve to a bucket's upper bound, so they
// are exact to within a factor of two — the right trade for a hot path
// that must not allocate or lock.
type Histogram struct {
	scale   float64
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// NewHistogram returns an unregistered histogram with the given export
// scale (Units when scale is not positive), holding the sum of from's
// observations. With no from it is a private instrument, for a component
// that keeps its statistics whether or not a registry exports them; with
// several it merges them bucket by bucket (observations are raw int64s,
// so from's own scales play no part). Each from is read atomically
// field by field, not as one cut: a caller that needs one must hold
// whatever orders from's Observes.
func NewHistogram(scale float64, from ...*Histogram) *Histogram {
	if scale <= 0 {
		scale = Units
	}
	h := &Histogram{scale: scale}
	for _, f := range from {
		h.count.Add(f.count.Load())
		h.sum.Add(f.sum.Load())
		for i := range h.buckets {
			h.buckets[i].Add(f.buckets[i].Load())
		}
	}
	return h
}

// Observe records one raw observation. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(uint64(v))&(histBuckets-1)].Add(1)
}

// ObserveDuration records a duration observation (its nanosecond count).
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// HistSnapshot is a point-in-time histogram summary, in the histogram's
// export unit (seconds for Seconds-scaled histograms).
type HistSnapshot struct {
	Count int64
	Sum   float64
	Mean  float64
	P50   float64
	P95   float64
	P99   float64
}

// Snapshot summarizes the histogram. Concurrent Observes may land
// between the bucket reads; the summary is approximate by design.
func (h *Histogram) Snapshot() HistSnapshot {
	var counts [histBuckets]int64
	var total int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	s := HistSnapshot{Count: h.count.Load(), Sum: float64(h.sum.Load()) / h.scale}
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
	}
	if total == 0 {
		return s
	}
	s.P50 = h.quantile(&counts, total, 0.50)
	s.P95 = h.quantile(&counts, total, 0.95)
	s.P99 = h.quantile(&counts, total, 0.99)
	return s
}

// quantile returns the upper bound of the bucket the q-quantile falls
// in, scaled to the export unit.
func (h *Histogram) quantile(counts *[histBuckets]int64, total int64, q float64) float64 {
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= target {
			if i == 0 {
				return 0
			}
			// Upper bound of bucket i: 2^i - 1.
			return float64(uint64(1)<<uint(i)-1) / h.scale
		}
	}
	return float64(^uint64(0)>>1) / h.scale
}

// write renders the histogram as a Prometheus summary under name (which
// may carry a label set; the quantile label and _sum/_count suffixes are
// spliced in).
func (h *Histogram) write(w io.Writer, name string) error {
	s := h.Snapshot()
	for _, qv := range [...]struct {
		q string
		v float64
	}{{"0.5", s.P50}, {"0.95", s.P95}, {"0.99", s.P99}} {
		if _, err := fmt.Fprintf(w, "%s %g\n", spliceLabel(name, `quantile="`+qv.q+`"`), qv.v); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s %g\n", spliceSuffix(name, "_sum"), s.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", spliceSuffix(name, "_count"), s.Count)
	return err
}

// spliceSuffix appends suffix to the bare metric name, before any label
// set: "m{a=\"1\"}" + "_sum" -> "m_sum{a=\"1\"}".
func spliceSuffix(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

// spliceLabel adds one label to the metric's label set, creating the set
// when the name has none.
func spliceLabel(name, label string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		if strings.HasPrefix(name[i:], "{}") {
			return name[:i] + "{" + label + "}" + name[i+2:]
		}
		return name[:len(name)-1] + "," + label + "}"
	}
	return name + "{" + label + "}"
}
