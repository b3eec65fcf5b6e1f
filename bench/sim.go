package main

import (
	"fmt"
	"runtime"
	"time"

	"dagmutex/internal/mutex"
	"dagmutex/internal/simharness"
	"dagmutex/internal/telemetry"
)

// sim_scale sizing: 1000 real core nodes on the virtual clock. The
// simulated duration scales with -window (3 simulated minutes per window
// second: 15m at the default 5s), so shrinking the window shrinks this
// workload with the others.
const (
	simNodes      = 1000
	simRequesters = 400
	simThink      = time.Second
	simHold       = 5 * time.Millisecond
	// simTraceCap bounds the separate traced run that supplies the
	// simulated acquire latency: the retained trace costs memory per event.
	simTraceCap = 3 * time.Minute
)

func simDuration(window time.Duration) time.Duration {
	return time.Duration(window.Seconds() * 3 * float64(time.Minute))
}

type simRun struct {
	rep       simharness.Report
	setup     time.Duration
	mallocs   uint64
	heapInuse int64
}

func simOnce(seed int64, dur time.Duration, trace bool) (simRun, *simharness.Harness, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	h, err := simharness.New(simharness.Config{Nodes: simNodes, Topology: "kary4", Seed: seed, Trace: trace})
	if err != nil {
		return simRun{}, nil, err
	}
	run := simRun{setup: time.Since(t0)}
	run.rep, err = h.Run(simharness.Workload{Duration: dur, Requesters: simRequesters, Think: simThink, Hold: simHold})
	runtime.ReadMemStats(&after)
	run.mallocs = after.Mallocs - before.Mallocs
	run.heapInuse = liveHeap() // the harness is still referenced: what the run retains
	return run, h, err
}

// simLatencies replays a retained trace into request→grant waits in
// simulated microseconds, plus the mean request-path length. A grant with
// no REQUEST before it is an idle holder entering at once: zero wait.
func simLatencies(trace []simharness.TraceRecord) (waitUs []float64, hopsPerGrant float64) {
	asked := make(map[mutex.ID]time.Duration)
	var hops, grants int64
	for _, r := range trace {
		switch r.Ev.Kind {
		case telemetry.TraceRequest:
			asked[r.Ev.Node] = r.At
		case telemetry.TraceGrant:
			wait := time.Duration(0)
			if at, ok := asked[r.Ev.Node]; ok {
				wait = r.At - at
				delete(asked, r.Ev.Node)
			}
			waitUs = append(waitUs, float64(wait)/1e3)
			hops += int64(r.Ev.Hops)
			grants++
		}
	}
	if grants > 0 {
		hopsPerGrant = float64(hops) / float64(grants)
	}
	return waitUs, hopsPerGrant
}

// runSim is the sim_scale workload. Its end-to-end pass repeats the same
// seeded run and fails unless grants and messages repeat bit for bit;
// ops_per_s is simulated grants per wall second. The acquire latencies
// are simulated time, from one separate shorter run with the harness's
// trace retained (the timed runs keep it off).
func runSim(o options, mode traceMode) (*workloadResult, error) {
	res := &workloadResult{Name: "sim_scale", Seed: o.seed}
	dur := simDuration(o.window)
	repeats := o.repeat
	if mode == modeTraced {
		repeats = 1
	}
	per := make(map[string][]float64)
	var first simRun
	for r := 0; r < repeats; r++ {
		run, _, err := simOnce(o.seed, dur, false)
		if err != nil {
			res.violate(err.Error()) // an invariant the harness checks on every grant
		}
		if run.rep.Grants == 0 {
			return res, fmt.Errorf("bench: sim_scale granted nothing in %v", dur)
		}
		if r == 0 {
			first = run
		} else if run.rep.Grants != first.rep.Grants || run.rep.Messages != first.rep.Messages {
			res.violate(fmt.Sprintf("sim_scale repeat %d: %d grants / %d messages, repeat 0 had %d / %d",
				r, run.rep.Grants, run.rep.Messages, first.rep.Grants, first.rep.Messages))
		}
		res.Attempted += run.rep.Grants
		grants := float64(run.rep.Grants)
		per["ops_per_s"] = append(per["ops_per_s"], grants/run.rep.WallDuration.Seconds())
		per["msgs_per_grant"] = append(per["msgs_per_grant"], run.rep.MsgsPerGrant)
		per["allocs_per_op"] = append(per["allocs_per_op"], float64(run.mallocs)/grants)
		per["heap_inuse_mb"] = append(per["heap_inuse_mb"], float64(run.heapInuse)/(1<<20))
		per["setup_s"] = append(per["setup_s"], run.setup.Seconds())
		per["failed_share"] = append(per["failed_share"], 0)
	}

	for i := 0; i < o.setups && mode != modeTraced; i++ {
		t0 := time.Now()
		if _, err := simharness.New(simharness.Config{Nodes: simNodes, Topology: "kary4", Seed: o.seed}); err != nil {
			return res, err
		}
		per["setup_s"] = append(per["setup_s"], time.Since(t0).Seconds())
	}

	traceDur := dur
	if traceDur > simTraceCap {
		traceDur = simTraceCap
	}
	traced, h, err := simOnce(o.seed, traceDur, true)
	if err != nil {
		res.violate("traced run: " + err.Error())
	}
	waits, hops := simLatencies(h.Trace())
	if mode != modeTraced {
		for name, vs := range per {
			res.setE2E(name, vs, 0)
		}
		res.setE2E("acquire_p50_us", []float64{percentile(waits, 50)}, len(waits))
		res.setE2E("acquire_p99_us", []float64{percentile(waits, 99)}, len(waits))
	}
	if mode != modeUntraced {
		res.setLayer("acquire_p99_us", percentile(waits, 99))
		res.setLayer("core.msgs_per_grant", traced.rep.MsgsPerGrant)
		res.setLayer("core.hops_per_grant", hops)
		res.setLayer("wire.msgs_per_s", float64(traced.rep.Messages)/traced.rep.WallDuration.Seconds())
		rate := func(r simRun) float64 { return float64(r.rep.Grants) / r.rep.WallDuration.Seconds() }
		res.setLayer("trace.overhead_share", 1-rate(traced)/rate(first))
	}
	return res, nil
}
