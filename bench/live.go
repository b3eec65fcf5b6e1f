package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dagmutex/internal/lockservice"
	"dagmutex/internal/transport"
	"dagmutex/internal/workload"
)

// Sizing rules shared by every live workload (see README.md): closed
// loop, fixed caller counts, spin dwell, one warm-up second per cluster.
const (
	members  = 4
	liveKeys = 64
	liveHold = 10 * time.Microsecond
)

// liveSpec is one live workload: who calls, over which keys, through what.
type liveSpec struct {
	callers int
	keys    int  // distinct resource keys, workload.ResourceKey(0..keys-1)
	zipf    bool // Zipf(1.1) key popularity; uniform otherwise
	shards  int
	// build starts a fresh cluster and returns one Locker per caller. A
	// non-nil tracer means the traced pass: build the same cluster with
	// every seam decorated.
	build func(tr *tracer) (*liveCluster, error)
}

// liveCluster is one built cluster as the driver needs it.
type liveCluster struct {
	lockers  []Locker
	services []*lockservice.Service
	// backends are the member-side timing wrappers of a traced client
	// workload; empty on member workloads.
	backends []*timedBackend
	// admission snapshots the client-facing listeners' counters (the
	// gateway's, or the members' own on the direct path); nil on member
	// workloads and on the untraced pass.
	admission func() transport.ClientStats
	close     func()
}

// clusterCounts sums the DAG message and grant counters over the members.
func (c *liveCluster) clusterCounts() (msgs, grants int64) {
	for _, svc := range c.services {
		st := svc.Stats()
		msgs += st.Messages
		grants += st.Grants
	}
	return msgs, grants
}

// liveRun is what one fresh cluster × (warm-up + window) produced.
type liveRun struct {
	ops, attempted, failed int64
	elapsed                time.Duration
	setup                  time.Duration
	latUs                  []float64   // caller-observed Acquire latency of every measured op, ascending
	slices                 []sliceStat // the window cut into sliceDur pieces; empty when it holds fewer than minSlices
	mallocs                uint64
	heapInuse              int64 // live heap after the window, cluster still up, driver's samples excluded
	msgs, grants           int64
	violations             int
	violationText          []string

	// Traced pass only.
	tr          *tracer
	recs        []opRec
	backends    []*timedBackend
	admitted    transport.ClientStats
	inflightMax int64
}

// caller is one closed-loop lock user. Padded so neighbours' counters do
// not share a cache line.
type caller struct {
	l    Locker
	rng  *rand.Rand
	zipf *rand.Zipf

	ops, attempted, failed int64
	lat                    []uint32 // nanoseconds; kept narrow so the driver's own samples stay a small part of heap_inuse_mb
	marks                  []int32  // marks[s] is the index in lat of the first op that ended in slice s or later
	recs                   []opRec
	_                      [64]byte
}

// The measured window is cut into slices, and each timing metric is the
// quiet quartile of the slices' values (see quiet): the reference machine
// shares its host, whose interference comes in bursts of a second or
// several and only ever slows the program down, so the slices it spoils
// are left out of the run's number instead of being averaged into it. A
// slice is long enough that the slowest workload still puts a few
// thousand samples under each slice's p99; a window too short for
// minSlices (the tests' smoke runs) is taken whole.
const (
	sliceDur  = 250 * time.Millisecond
	minSlices = 4
)

// sliceStat is one slice of the window: what completed in it.
type sliceStat struct {
	opsPerS, p50Us, p99Us float64
}

// cutSlices gathers, for each of the window's n slices, the operations
// every caller ended in it.
func cutSlices(callers []*caller, n int) []sliceStat {
	out := make([]sliceStat, 0, n)
	for s := 0; s < n; s++ {
		var lat []float64
		for _, c := range callers {
			// A caller that ended nothing from slice s on has no mark for it.
			lo, hi := len(c.lat), len(c.lat)
			if s < len(c.marks) {
				lo = int(c.marks[s])
			}
			if s+1 < len(c.marks) {
				hi = int(c.marks[s+1])
			}
			for _, ns := range c.lat[lo:hi] {
				lat = append(lat, float64(ns)/1e3)
			}
		}
		sort.Float64s(lat)
		out = append(out, sliceStat{
			opsPerS: float64(len(lat)) / sliceDur.Seconds(),
			p50Us:   percentileSorted(lat, 50),
			p99Us:   percentileSorted(lat, 99),
		})
	}
	return out
}

// mark notes, before the caller appends the sample of an operation that
// ended in slice s, where in lat each slice up to s begins. Slices past
// the window's last whole one (the tail the callers finish in) share one
// closing mark.
func (c *caller) mark(s, n int) {
	for len(c.marks) <= s && len(c.marks) <= n {
		c.marks = append(c.marks, int32(len(c.lat)))
	}
}

// sliceTimings is the three sliced metrics over a set of slices: the
// quiet quartile of each. No slices, no values.
func sliceTimings(slices []sliceStat) map[string]float64 {
	if len(slices) == 0 {
		return nil
	}
	var tput, p50, p99 []float64
	for _, s := range slices {
		tput = append(tput, s.opsPerS)
		p50 = append(p50, s.p50Us)
		p99 = append(p99, s.p99Us)
	}
	return map[string]float64{
		"ops_per_s":      quiet(tput, "higher"),
		"acquire_p50_us": quiet(p50, "lower"),
		"acquire_p99_us": quiet(p99, "lower"),
	}
}

// extraSetups is how many set-up-only clusters each end-to-end pass adds
// to its setup_s sample (options.setups; the tests add fewer).
const extraSetups = 90

const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// runLive builds a fresh cluster, lets every caller take its first grant
// (that is the set-up), warms up, measures for window, and tears down. A
// zero window stops after the set-up: one more setup_s sample.
func runLive(spec liveSpec, seed int64, warm, window time.Duration, traced bool) (liveRun, error) {
	var run liveRun
	buildStart := time.Now()
	if traced {
		run.tr = newTracer()
	}
	cl, err := spec.build(run.tr)
	if err != nil {
		return run, err
	}
	closed := false
	defer func() {
		if !closed {
			cl.close()
		}
	}()
	if len(cl.lockers) != spec.callers {
		return run, fmt.Errorf("bench: workload built %d lockers for %d callers", len(cl.lockers), spec.callers)
	}
	base := buildStart
	if traced {
		base = run.tr.start
	}
	now := func() int64 { return int64(time.Since(base)) }

	keys := make([]string, spec.keys)
	shardOf := make([]int32, spec.keys)
	for i := range keys {
		keys[i] = workload.ResourceKey(i)
		shardOf[i] = int32(lockservice.KeyShard(keys[i], spec.shards))
	}
	chk := newChecker(spec.keys, spec.shards)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var phase atomic.Int32
	var measureStart atomic.Int64 // now() when the window opened; set before phase says so
	nSlices := int(window / sliceDur)
	if nSlices < minSlices {
		nSlices = 0
	}
	var ready, done sync.WaitGroup
	callers := make([]*caller, spec.callers)
	for i := range callers {
		c := &caller{l: cl.lockers[i], rng: rand.New(rand.NewSource(seed + int64(i)*7919))}
		if spec.zipf && spec.keys > 1 {
			c.zipf = rand.NewZipf(c.rng, 1.1, 1, uint64(spec.keys-1))
		}
		c.lat = make([]uint32, 0, 1<<12)
		callers[i] = c
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			var once sync.Once
			signal := func() { once.Do(ready.Done) }
			defer signal()
			for phase.Load() != phaseStop {
				k := 0
				switch {
				case c.zipf != nil:
					k = int(c.zipf.Uint64())
				case spec.keys > 1:
					k = c.rng.Intn(spec.keys)
				}
				t0 := now()
				fence, err := c.l.Acquire(ctx, keys[k])
				t1 := now()
				if err != nil {
					if phase.Load() == phaseMeasure {
						c.attempted++
						c.failed++
					}
					if ctx.Err() != nil {
						return
					}
					time.Sleep(time.Millisecond) // a dead cluster must not spin
					continue
				}
				chk.enter(k, int(shardOf[k]), fence)
				workload.Dwell(liveHold)
				chk.exit(k)
				t2 := now()
				err = c.l.Release(keys[k], fence)
				t3 := now()
				if phase.Load() == phaseMeasure {
					c.attempted++
					if err != nil {
						c.failed++
					} else {
						c.ops++
						c.mark(int((t3-measureStart.Load())/int64(sliceDur)), nSlices)
						c.lat = append(c.lat, uint32(min(t1-t0, math.MaxUint32)))
						if traced {
							c.recs = append(c.recs, opRec{key: fenceKey{shard: shardOf[k], fence: fence},
								acqCall: t0, acqRet: t1, relCall: t2, relRet: t3})
						}
					}
				}
				signal()
			}
		}()
	}
	ready.Wait()
	run.setup = time.Since(buildStart)
	if window <= 0 {
		phase.Store(phaseStop)
		done.Wait()
		return run, nil
	}

	time.Sleep(warm)
	var before, after runtime.MemStats
	msgs0, grants0 := cl.clusterCounts()
	var adm0 transport.ClientStats
	if cl.admission != nil {
		adm0 = cl.admission()
	}
	runtime.ReadMemStats(&before)
	if traced {
		run.tr.on.Store(true)
	}
	stopSampler := make(chan struct{})
	var sampler sync.WaitGroup
	if cl.admission != nil {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-tick.C:
					if in := cl.admission().Inflight; in > run.inflightMax {
						run.inflightMax = in
					}
				}
			}
		}()
	}
	start := time.Now()
	measureStart.Store(now())
	phase.Store(phaseMeasure)
	time.Sleep(window)
	phase.Store(phaseStop)
	run.elapsed = time.Since(start)
	if traced {
		run.tr.on.Store(false)
	}
	runtime.ReadMemStats(&after)
	msgs1, grants1 := cl.clusterCounts()
	close(stopSampler)
	sampler.Wait()
	if cl.admission != nil {
		adm1 := cl.admission()
		run.admitted = transport.ClientStats{
			Admitted:  adm1.Admitted - adm0.Admitted,
			ShedDepth: adm1.ShedDepth - adm0.ShedDepth,
			ShedRate:  adm1.ShedRate - adm0.ShedRate,
		}
	}
	run.mallocs = after.Mallocs - before.Mallocs
	run.msgs, run.grants = msgs1-msgs0, grants1-grants0
	// Callers finish the cycle they are in; a hang is a liveness failure.
	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		cancel()
		<-finished
		chk.fail("callers still blocked 10s after the window closed")
	}
	for _, svc := range cl.services {
		if err := svc.Err(); err != nil {
			chk.fail("cluster error: %v", err)
		}
	}
	// The process's live heap with the cluster still up, less the callers'
	// latency samples: what the program retains, not the driver. (The
	// traced pass, which also keeps opRecs, does not report the heap.)
	run.heapInuse = liveHeap()
	for _, c := range callers {
		run.heapInuse -= int64(cap(c.lat)) * 4
	}
	closed = true
	cl.close()

	run.slices = cutSlices(callers, nSlices)
	for _, c := range callers {
		run.ops += c.ops
		run.attempted += c.attempted
		run.failed += c.failed
		for _, ns := range c.lat {
			run.latUs = append(run.latUs, float64(ns)/1e3)
		}
		run.recs = append(run.recs, c.recs...)
	}
	sort.Float64s(run.latUs)
	run.backends = cl.backends
	run.violations, run.violationText = chk.result()
	if run.ops == 0 {
		return run, fmt.Errorf("bench: no operation completed in the window")
	}
	return run, nil
}

// liveEndToEnd runs the untraced pass: repeat fresh clusters, each metric
// the median over them — except the sliced timings, which are the quiet
// quartile over the slices of all repeats together, so that one repeat the
// host left alone is enough. It returns each repeat's end-to-end values.
func liveEndToEnd(res *workloadResult, spec liveSpec, o options) ([]map[string]float64, error) {
	var runs []map[string]float64
	per := make(map[string][]float64)
	var slices []sliceStat
	samples := 0
	for r := 0; r < o.repeat; r++ {
		run, err := runLive(spec, o.seed, o.warm, o.window, false)
		if err != nil {
			return runs, err
		}
		run.countInto(res, "")
		samples += len(run.latUs)
		slices = append(slices, run.slices...)
		values := run.endToEnd()
		runs = append(runs, values)
		for name, v := range values {
			per[name] = append(per[name], v)
		}
	}
	// Set-up takes milliseconds, so more fresh clusters steady its value
	// at little cost.
	for i := 0; i < o.setups; i++ {
		run, err := runLive(spec, o.seed, 0, 0, false)
		if err != nil {
			return runs, err
		}
		per["setup_s"] = append(per["setup_s"], run.setup.Seconds())
	}
	for name, vs := range per {
		res.setE2E(name, vs, samples)
	}
	for name, v := range sliceTimings(slices) {
		res.setE2EValue(name, v)
	}
	return runs, nil
}

// liveHeap forces a collection and returns the bytes of live heap objects.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// countInto adds the run's attempted and failed operations and its safety
// violations to the workload's totals.
func (run *liveRun) countInto(res *workloadResult, prefix string) {
	res.Attempted += run.attempted
	res.Failed += run.failed
	for _, v := range run.violationText {
		res.violate(prefix + v)
	}
	res.ViolationCount += run.violations - len(run.violationText)
}

// endToEnd derives one run's end-to-end values.
func (run *liveRun) endToEnd() map[string]float64 {
	ops := float64(run.ops)
	out := map[string]float64{
		"ops_per_s":      ops / run.elapsed.Seconds(),
		"acquire_p50_us": percentileSorted(run.latUs, 50),
		"acquire_p99_us": percentileSorted(run.latUs, 99),
		"allocs_per_op":  float64(run.mallocs) / ops,
		"heap_inuse_mb":  float64(run.heapInuse) / (1 << 20),
		"setup_s":        run.setup.Seconds(),
		"failed_share":   float64(run.failed) / float64(run.attempted),
	}
	for name, v := range sliceTimings(run.slices) {
		out[name] = v
	}
	if run.grants > 0 {
		out["msgs_per_grant"] = float64(run.msgs) / float64(run.grants)
	}
	return out
}

// liveTraced runs the traced pass on one fresh cluster and derives the
// per-layer metrics and the synchronization-delay budget. ref is the
// untraced repeat the tracing overhead and the fidelity check are held
// against.
func liveTraced(res *workloadResult, spec liveSpec, o options, ref map[string]float64) (budget, error) {
	run, err := runLive(spec, o.seed, o.warm, o.window, true)
	if err != nil {
		return budget{}, err
	}
	run.countInto(res, "traced pass: ")

	tr := run.tr
	ops := float64(run.ops)
	var calls, busy, sends, grants, hops, regrants, fused, rels, unmatched int64
	var transits []float64
	for _, n := range tr.nodes {
		calls += n.calls
		busy += n.busyNs
		sends += n.sends
		grants += n.grants
		hops += n.hops
		regrants += n.regrants
		fused += n.fused
		rels += n.rels
		unmatched += n.unmatched
	}
	for _, q := range tr.links {
		transits = append(transits, nsToUs(q.transits)...)
	}
	if unmatched > 0 {
		res.violate(fmt.Sprintf("traced pass: %d deliveries had no matching send", unmatched))
	}
	res.setLayer("core.calls_per_op", float64(calls)/ops)
	res.setLayer("core.busy_us_per_op", float64(busy)/1e3/ops)
	if grants > 0 {
		res.setLayer("core.msgs_per_grant", float64(sends)/float64(grants))
		res.setLayer("core.hops_per_grant", float64(hops)/float64(grants))
		res.setLayer("core.regrant_share", float64(regrants)/float64(grants))
	}
	if rels > 0 {
		res.setLayer("core.fused_release_share", float64(fused)/float64(rels))
	}
	sort.Float64s(transits)
	res.setLayer("wire.transit_us_p50", percentileSorted(transits, 50))
	res.setLayer("wire.transit_us_p99", percentileSorted(transits, 99))
	res.setLayer("wire.msgs_per_s", float64(sends)/run.elapsed.Seconds())

	spans := tr.spans(run.recs, run.backends)
	var wake, acq, rel, backendAcq, hop []float64
	for _, s := range spans {
		if s.granted != 0 && s.bAcqRet != 0 {
			wake = append(wake, float64(s.bAcqRet-s.granted)/1e3)
		}
		if s.bAcqRet != 0 && s.bAcqCall != 0 {
			acq = append(acq, float64(s.bAcqRet-s.bAcqCall)/1e3)
			if len(run.backends) > 0 && s.acqRet != 0 {
				backendAcq = append(backendAcq, float64(s.bAcqRet-s.bAcqCall)/1e3)
				hop = append(hop, float64((s.acqRet-s.acqCall)-(s.bAcqRet-s.bAcqCall))/1e3)
			}
		}
	}
	for _, op := range run.recs {
		rel = append(rel, float64(op.relRet-op.relCall)/1e3)
	}
	sort.Float64s(wake)
	res.setLayer("wake.us_p50", percentileSorted(wake, 50))
	res.setLayer("wake.us_p99", percentileSorted(wake, 99))
	res.setLayer("lockservice.acquire_us_mean", mean(acq))
	if len(run.backends) == 0 {
		// On the client workloads the caller's Release spans the client hop
		// too; the member-side release is in the budget's lockservice row.
		res.setLayer("lockservice.release_us_mean", mean(rel))
	}
	if len(run.backends) > 0 {
		res.setLayer("backend.acquire_us_p50", percentile(backendAcq, 50))
		res.setLayer("clienthop.us_p50", percentile(hop, 50))
		if offered := run.admitted.Admitted + run.admitted.Shed(); offered > 0 {
			res.setLayer("gateway.shed_share", float64(run.admitted.Shed())/float64(offered))
		}
		res.setLayer("gateway.inflight_max", float64(run.inflightMax))
	}

	b := joinSyncDelay(spans)
	res.setLayer("sync_delay_us_p50", b.P50)
	res.setLayer("sync_delay_us_mean", b.Mean)
	for _, name := range budgetRows {
		res.setLayer(name, b.Rows[name])
	}
	res.setLayer("unattributed_us", b.Unattributed)

	got := run.endToEnd()
	res.setLayer("trace.overhead_share", 1-got["ops_per_s"]/ref["ops_per_s"])
	// The shims must not change the program: a lost capability shows as a
	// different message count per grant.
	spec10, _ := specByName(endToEnd, "msgs_per_grant")
	if d := relDiff(got["msgs_per_grant"], ref["msgs_per_grant"]); d > spec10.Bound {
		res.violate(fmt.Sprintf("traced pass ran a different program: msgs_per_grant %.3f traced vs %.3f untraced (%.0f%% apart, bound %.0f%%)",
			got["msgs_per_grant"], ref["msgs_per_grant"], 100*d, 100*spec10.Bound))
	}
	return b, nil
}

// relDiff is |a-b| as a share of |b| (1 when only b is 0).
func relDiff(a, b float64) float64 {
	switch {
	case a == b:
		return 0
	case b == 0:
		return 1
	}
	return math.Abs((a - b) / b)
}
