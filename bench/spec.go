package main

// metricSpec declares one metric: its unit, which direction is better and,
// for end-to-end metrics, the share of the baseline's median by which it
// may worsen before -compare (and the builder's driver, through
// BENCHMARK.json) calls a regression.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Only, when set, lists the workloads that report the metric; the
	// suite prints n/a elsewhere.
	Only []string
	// Absolute marks a bound that is an absolute difference, not a share
	// of the baseline (failed_share is 0 on a healthy run).
	Absolute bool
	// Sampled marks a percentile over timing samples: its sample count is
	// reported with it.
	Sampled bool
	// Unbound marks a timing the reference machine cannot hold to any bound
	// the builder's contract allows; BENCHMARK.json lists it under
	// per_layer, which carries none. The suite and -compare treat it like
	// the rest.
	Unbound bool
	// Midmean marks a metric whose many per-repeat values fall into two
	// modes, so that a median would jump between them run to run; its
	// value is their interquartile mean instead.
	Midmean bool
}

func (m metricSpec) on(workload string) bool {
	if m.Only == nil {
		return true
	}
	for _, w := range m.Only {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEnd is the nine metrics a user of the lock service would see.
// BENCHMARK.json repeats the bounds; the schema test keeps the two equal.
var endToEnd = []metricSpec{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "acquire_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Sampled: true},
	{Name: "acquire_p99_us", Unit: "us", Better: "lower", Bound: 0.25, Sampled: true, Unbound: true},
	{Name: "msgs_per_grant", Unit: "count", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.25},
	{Name: "heap_inuse_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Midmean: true},
	{Name: "failed_share", Unit: "share", Better: "lower", Bound: 0.001, Absolute: true},
	{Name: "outage_ms_p50", Unit: "ms", Better: "lower", Bound: 0.15, Only: []string{"failover_local"}},
}

// perLayer is every per-layer metric of the traced pass. A layer a
// workload does not exercise reports 0 there (the builder's contract wants
// every per-layer metric from every traced run).
var perLayer = []metricSpec{
	// The end-to-end tail latency, measured with tracing off like the rest
	// of the end-to-end metrics (see Unbound).
	{Name: "acquire_p99_us", Unit: "us", Better: "lower"},
	// Seam decorators (live member and client workloads).
	{Name: "core.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "core.busy_us_per_op", Unit: "us", Better: "lower"},
	{Name: "core.msgs_per_grant", Unit: "count", Better: "lower"},
	{Name: "core.hops_per_grant", Unit: "count", Better: "lower"},
	{Name: "core.regrant_share", Unit: "share", Better: "higher"},
	{Name: "core.fused_release_share", Unit: "share", Better: "higher"},
	{Name: "wire.transit_us_p50", Unit: "us", Better: "lower"},
	{Name: "wire.transit_us_p99", Unit: "us", Better: "lower"},
	{Name: "wire.msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "wake.us_p50", Unit: "us", Better: "lower"},
	{Name: "wake.us_p99", Unit: "us", Better: "lower"},
	{Name: "lockservice.acquire_us_mean", Unit: "us", Better: "lower"},
	{Name: "lockservice.release_us_mean", Unit: "us", Better: "lower"},
	// Client tier (client_* workloads).
	{Name: "backend.acquire_us_p50", Unit: "us", Better: "lower"},
	{Name: "clienthop.us_p50", Unit: "us", Better: "lower"},
	{Name: "gateway.shed_share", Unit: "share", Better: "lower"},
	{Name: "gateway.inflight_max", Unit: "count", Better: "lower"},
	// Failure path (failover_local).
	{Name: "outage_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "failure.detect_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "failure.repair_ms_p50", Unit: "ms", Better: "lower"},
	// The synchronization-delay budget.
	{Name: "sync_delay_us_p50", Unit: "us", Better: "lower"},
	{Name: "sync_delay_us_mean", Unit: "us", Better: "lower"},
	{Name: "budget.clienthop_us", Unit: "us", Better: "lower"},
	{Name: "budget.lockservice_us", Unit: "us", Better: "lower"},
	{Name: "budget.core_us", Unit: "us", Better: "lower"},
	{Name: "budget.wire_us", Unit: "us", Better: "lower"},
	{Name: "budget.wake_us", Unit: "us", Better: "lower"},
	{Name: "unattributed_us", Unit: "us", Better: "lower"},
	// Layer probes (the same on every workload: each layer alone).
	{Name: "probe.core_step_ns", Unit: "ns", Better: "lower"},
	{Name: "probe.dagcodec_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "probe.dagcodec_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "probe.clientframe_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "probe.clientframe_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "probe.local_handoff_us", Unit: "us", Better: "lower"},
	{Name: "probe.tcp_handoff_us", Unit: "us", Better: "lower"},
	{Name: "probe.slot_uncontended_ns", Unit: "ns", Better: "lower"},
	{Name: "probe.client_echo_us", Unit: "us", Better: "lower"},
	{Name: "probe.gateway_echo_us", Unit: "us", Better: "lower"},
	{Name: "probe.vclock_event_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// budgetRows are the per-layer rows of the synchronization-delay table, in
// the order a handoff crosses them; with unattributed_us they sum to
// sync_delay_us_mean.
var budgetRows = []string{
	"budget.clienthop_us", "budget.lockservice_us", "budget.core_us", "budget.wire_us", "budget.wake_us",
}

// contractEndToEnd is what a `-trace 0` run prints on its last line and
// BENCHMARK.json lists under end_to_end. The builder's contract wants
// every listed metric from every workload, never zero, under a relative
// bound of at most 25% that ten runs of one commit stay within; that
// leaves out outage_ms_p50 (one workload) and acquire_p99_us (too
// unsteady), both listed under per_layer instead, and failed_share (zero
// when healthy, absolute bound; the result line's attempted and failed
// carry it).
func contractEndToEnd() []metricSpec {
	var out []metricSpec
	for _, m := range endToEnd {
		if m.Only == nil && !m.Absolute && !m.Unbound {
			out = append(out, m)
		}
	}
	return out
}

func specByName(list []metricSpec, name string) (metricSpec, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// metricValue is one reported number: the median over repeats, the
// per-repeat values behind it, and for sampled timings the sample count.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Repeats []float64 `json:"repeats,omitempty"`
	Samples int       `json:"samples,omitempty"`
}

// workloadResult is everything one workload produced in one invocation.
type workloadResult struct {
	Name       string                 `json:"name"`
	Seed       int64                  `json:"seed"`
	EndToEnd   map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer   map[string]metricValue `json:"per_layer,omitempty"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Violations []string               `json:"violations,omitempty"`
	// ViolationCount can exceed len(Violations): only the first few are kept.
	ViolationCount int `json:"violation_count"`
	// Notes are things a reader of the numbers should know (a round redone).
	Notes []string `json:"notes,omitempty"`

	// budget is the traced pass's synchronization-delay table (live
	// workloads only); its numbers are also in PerLayer.
	budget *budget
}

func (r *workloadResult) correct() bool { return r.ViolationCount == 0 }

func (r *workloadResult) violate(msg string) {
	r.ViolationCount++
	if len(r.Violations) < 16 {
		r.Violations = append(r.Violations, msg)
	}
}

// setE2E stores an end-to-end metric as the median (or, where the spec
// says so, the midmean) of its per-repeat values. samples is how many
// timing samples stand behind a Sampled metric; other metrics ignore it.
func (r *workloadResult) setE2E(name string, repeats []float64, samples int) {
	spec, ok := specByName(endToEnd, name)
	if !ok {
		panic("bench: undeclared end-to-end metric " + name)
	}
	if r.EndToEnd == nil {
		r.EndToEnd = make(map[string]metricValue)
	}
	v := metricValue{Value: median(repeats), Unit: spec.Unit, Repeats: repeats}
	if spec.Midmean {
		v.Value = midmean(repeats)
	}
	if spec.Sampled {
		v.Samples = samples
	}
	r.EndToEnd[name] = v
}

// setE2EValue replaces the value of an end-to-end metric already set,
// keeping the per-repeat values beside it: for a metric whose value is
// not a statistic of its per-repeat values.
func (r *workloadResult) setE2EValue(name string, value float64) {
	v, ok := r.EndToEnd[name]
	if !ok {
		panic("bench: end-to-end metric " + name + " has no per-repeat values yet")
	}
	v.Value = value
	r.EndToEnd[name] = v
}

// setLayer stores a per-layer metric.
func (r *workloadResult) setLayer(name string, v float64) {
	spec, ok := specByName(perLayer, name)
	if !ok {
		panic("bench: undeclared per-layer metric " + name)
	}
	if r.PerLayer == nil {
		r.PerLayer = make(map[string]metricValue)
	}
	r.PerLayer[name] = metricValue{Value: v, Unit: spec.Unit}
}

// fillLayers gives every declared per-layer metric the workload did not
// set the value 0: the layer is not on this workload's path.
func (r *workloadResult) fillLayers() {
	for _, m := range perLayer {
		if _, ok := r.PerLayer[m.Name]; !ok {
			r.setLayer(m.Name, 0)
		}
	}
}
