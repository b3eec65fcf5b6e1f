// Package metrics turns raw run data (traffic counts, grant logs, storage
// samples) into the quantities Chapter 6 of the thesis reports: messages
// per critical-section entry, synchronization delay in message hops, and
// storage overhead.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"dagmutex/internal/cluster"
	"dagmutex/internal/mutex"
	"dagmutex/internal/sim"
)

// MessagesPerEntry returns total messages divided by critical-section
// entries — the paper's primary cost metric.
func MessagesPerEntry(counts sim.Counts, entries int) float64 {
	if entries == 0 {
		return math.NaN()
	}
	return float64(counts.Messages) / float64(entries)
}

// SyncDelays extracts the synchronization delay, in message hops, of every
// grant whose request was already waiting when the previous holder left
// its critical section (thesis §6.3).
func SyncDelays(grants []cluster.Grant) []float64 {
	var out []float64
	for _, g := range grants {
		if d, ok := g.SyncDelayHops(sim.Hop); ok {
			out = append(out, d)
		}
	}
	return out
}

// Summary aggregates a sample of float64 observations.
type Summary struct {
	Count int
	Min   float64
	Mean  float64
	Max   float64
	P99   float64
}

// Summarize computes a Summary. An empty input yields NaN statistics.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return Summary{Min: nan, Mean: nan, Max: nan, P99: nan}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	p99 := sorted[(len(sorted)-1)*99/100]
	return Summary{
		Count: len(xs),
		Min:   sorted[0],
		Mean:  sum / float64(len(sorted)),
		Max:   sorted[len(sorted)-1],
		P99:   p99,
	}
}

// String renders a Summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.2f mean=%.2f p99=%.2f max=%.2f", s.Count, s.Min, s.Mean, s.P99, s.Max)
}

// StorageReport aggregates per-node storage maxima across a cluster.
type StorageReport struct {
	// PerNodeMax is the component-wise maximum footprint any single node
	// reached.
	PerNodeMax mutex.Storage
	// Total is the sum of every node's maximum footprint.
	Total mutex.Storage
}

// StorageFrom summarizes per-node storage maxima.
func StorageFrom(m map[mutex.ID]mutex.Storage) StorageReport {
	var r StorageReport
	for _, s := range m {
		r.Total = r.Total.Add(s)
		r.PerNodeMax = r.PerNodeMax.Max(s)
	}
	return r
}

// WatchStorage is the §6.4 measurement as a view over a cluster's grant
// and release hooks: it samples every node's control-state footprint at
// each of those boundaries and returns a function reporting the
// component-wise maxima observed so far. Install it before the run. The
// sweep over all nodes is the experiment's cost, paid only by runs that
// ask for it.
func WatchStorage(c *cluster.Cluster) func() StorageReport {
	peak := make(map[mutex.ID]mutex.Storage, len(c.IDs()))
	sample := func() {
		for _, id := range c.IDs() {
			peak[id] = peak[id].Max(c.Node(id).Storage())
		}
	}
	c.OnGrant(func(cluster.Grant) { sample() })
	c.OnRelease(func(mutex.ID, sim.Time) { sample() })
	return func() StorageReport { return StorageFrom(peak) }
}

// WaitTimes returns, in hops, how long each granted request waited from
// issue to grant. Immediate grants contribute zero.
func WaitTimes(grants []cluster.Grant) []float64 {
	out := make([]float64, len(grants))
	for i, g := range grants {
		out[i] = float64(g.GrantAt-g.ReqAt) / float64(sim.Hop)
	}
	return out
}
