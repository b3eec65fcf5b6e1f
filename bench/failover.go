package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dagmutex/internal/core"
	"dagmutex/internal/failure"
	"dagmutex/internal/mutex"
	rt "dagmutex/internal/runtime"
	"dagmutex/internal/topology"
	"dagmutex/internal/transport"
	"dagmutex/internal/workload"
)

// failover_local sizing. Every round is a fresh 5-node Local star with
// heartbeat failure detection; one caller per node holds for 5 ms (the
// first half asleep, the rest a workload.Dwell to the deadline). After
// failoverSettle the node that is inside its critical section kills
// itself mid-dwell, and the round goes on for failoverTail past the first
// grant on a survivor.
const (
	failoverNodes     = 5
	failoverHold      = 5 * time.Millisecond
	failoverSettle    = 300 * time.Millisecond
	failoverTail      = 200 * time.Millisecond
	failoverHeartbeat = 10 * time.Millisecond
	failoverSuspect   = 80 * time.Millisecond
	// failoverGiveUp is how long a round waits for the first grant on a
	// survivor (normally one suspicion window away) before giving up.
	failoverGiveUp = 5 * time.Second
	// failoverRoundsPerRepeat × -repeat rounds make one run: 12 by default.
	failoverRoundsPerRepeat = 4
)

type failoverGrant struct {
	at    time.Time
	node  mutex.ID
	fence uint64
}

// failoverRound is what one kill produced.
type failoverRound struct {
	setup        time.Duration
	elapsed      time.Duration
	ops, failed  int64
	latUs        []float64
	msgs, grants int64
	mallocs      uint64
	heapInuse    int64
	outage       time.Duration
	detect       time.Duration // kill → first down verdict against the victim on a survivor
	// spoiled marks a round in which a live node was declared down: the
	// machine stalled some node's heartbeats past the suspicion window.
	// That opens the split-brain window the README's failure model
	// describes (old and regenerated token both live), so the round
	// measures the machine's scheduling, not the failover path.
	spoiled       bool
	violations    int
	violationText []string
	victim        mutex.ID
}

func runFailoverRound() (failoverRound, error) {
	var round failoverRound
	buildStart := time.Now()
	tree := topology.Star(failoverNodes)
	cfg := mutex.Config{IDs: tree.IDs(), Holder: 1, Parent: tree.ParentsToward(1)}
	cl, err := transport.NewLocal(core.Builder, cfg,
		transport.WithFailureDetection(failure.Config{Heartbeat: failoverHeartbeat, SuspectAfter: failoverSuspect}))
	if err != nil {
		return round, err
	}
	defer cl.Close()

	chk := newChecker(1, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		mu        sync.Mutex
		grants    []failoverGrant
		lat       []int64
		ops       atomic.Int64
		failed    atomic.Int64
		measuring atomic.Bool
		killDue   atomic.Int64 // unix nanos after which the holder kills itself; 0 = not armed
		killed    atomic.Bool
		killAt    time.Time // written by the victim before it stores victim
		victim    atomic.Int32
		ready     sync.WaitGroup
		done      sync.WaitGroup
	)
	for _, id := range cfg.IDs {
		s := cl.Session(id)
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			var once sync.Once
			signal := func() { once.Do(ready.Done) }
			defer signal()
			for ctx.Err() == nil {
				t0 := time.Now()
				g, err := s.Acquire(ctx)
				t1 := time.Now()
				if err != nil {
					if ctx.Err() == nil {
						failed.Add(1)
					}
					return
				}
				chk.enter(0, 0, g.Generation)
				if measuring.Load() {
					mu.Lock()
					grants = append(grants, failoverGrant{at: t1, node: s.ID(), fence: g.Generation})
					lat = append(lat, int64(t1.Sub(t0)))
					mu.Unlock()
				}
				time.Sleep(failoverHold / 2)
				if due := killDue.Load(); due != 0 && time.Now().UnixNano() >= due && killed.CompareAndSwap(false, true) {
					// Mid-dwell: this node dies holding the token. Its hold
					// ends with it; the fence defends whatever it guarded.
					chk.exit(0)
					killAt = time.Now()
					victim.Store(int32(s.ID()))
					if err := cl.Kill(s.ID()); err != nil {
						chk.fail("kill node %d: %v", s.ID(), err)
					}
					return
				}
				workload.Dwell(time.Until(t1.Add(failoverHold)))
				chk.exit(0)
				if err := s.Release(); err != nil {
					if ctx.Err() == nil && !errors.Is(err, rt.ErrNodeDown) {
						failed.Add(1)
					}
					return
				}
				if measuring.Load() {
					ops.Add(1)
				}
				signal()
			}
		}()
	}
	ready.Wait()
	round.setup = time.Since(buildStart)

	// Down verdicts, as every node's Session.Membership() reports them.
	var verdicts []rt.MemberEvent
	var watchers sync.WaitGroup
	for _, id := range cfg.IDs {
		events := cl.Session(id).Membership()
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case ev := <-events:
					if ev.Down {
						mu.Lock()
						verdicts = append(verdicts, ev)
						mu.Unlock()
					}
				}
			}
		}()
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	msgs0 := cl.Messages()
	start := time.Now()
	measuring.Store(true)
	killDue.Store(start.Add(failoverSettle).UnixNano())

	// Wait for the kill, then for the first grant on a survivor.
	deadline := time.Now().Add(failoverSettle + failoverGiveUp)
	var recovered time.Time
	mark := 0
	for recovered.IsZero() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		v := mutex.ID(victim.Load())
		if v == mutex.Nil {
			continue
		}
		mu.Lock()
		for ; mark < len(grants); mark++ {
			if g := grants[mark]; g.node != v && !g.at.Before(killAt) {
				recovered = g.at
				break
			}
		}
		mu.Unlock()
	}
	if recovered.IsZero() {
		cancel()
		done.Wait()
		watchers.Wait()
		// A live node declared down can cost the survivors their quorum
		// (three of five must be up): the stalled machine again, not the
		// failover path. Anything else is a recovery that did not finish.
		v := mutex.ID(victim.Load())
		for _, ev := range verdicts {
			if ev.Peer != v {
				round.spoiled = true
				return round, nil
			}
		}
		return round, fmt.Errorf("bench: no grant on a survivor within %v of node %d killing itself (%d down verdicts, all against it; cluster error: %v)",
			failoverGiveUp, v, len(verdicts), cl.Err())
	}
	time.Sleep(time.Until(recovered.Add(failoverTail)))
	measuring.Store(false)
	round.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	round.mallocs = after.Mallocs - before.Mallocs
	round.msgs = cl.Messages() - msgs0
	round.heapInuse = liveHeap() // the cluster is still up
	cancel()
	done.Wait()
	watchers.Wait() // verdicts is the coordinator's alone from here
	if err := cl.Err(); err != nil {
		chk.fail("cluster error: %v", err)
	}

	round.victim = mutex.ID(victim.Load())
	round.outage = recovered.Sub(killAt)
	for _, ev := range verdicts {
		switch {
		case ev.Peer != round.victim:
			round.spoiled = true
		case round.detect == 0 || ev.At.Sub(killAt) < round.detect:
			round.detect = ev.At.Sub(killAt)
		}
	}
	// Every fence granted after the kill must exceed every fence granted
	// before it: the regenerated token fences off the dead holder.
	var preMax uint64
	for _, g := range grants {
		if g.at.Before(killAt) && g.fence > preMax {
			preMax = g.fence
		}
	}
	for _, g := range grants {
		if !g.at.Before(killAt) && g.fence <= preMax {
			chk.fail("post-kill fence %d on node %d does not exceed pre-kill fence %d", g.fence, g.node, preMax)
		}
	}
	round.ops = ops.Load()
	round.failed = failed.Load()
	round.grants = int64(len(grants))
	round.latUs = nsToUs(lat)
	round.violations, round.violationText = chk.result()
	return round, nil
}

// runFailover is the failover_local workload: 4 × -repeat rounds, each a
// fresh cluster and one kill. Every metric is the median over rounds,
// except the acquire latencies, which pool every round's samples (a round
// has too few for its own p99) — and since each round's survivors wait
// the outage out once, acquire_p99_us here is the outage as callers see
// it. The victim's cut-short cycle is not an attempted operation.
func runFailover(o options, mode traceMode) (*workloadResult, error) {
	res := &workloadResult{Name: "failover_local", Seed: o.seed}
	rounds := failoverRoundsPerRepeat * o.repeat
	per := make(map[string][]float64)
	var lat, detect, repair []float64
	redone := 0
	for r := 0; r < rounds; r++ {
		round, err := runFailoverRound()
		if err != nil {
			return res, err
		}
		if round.spoiled {
			// Rerun it, a bounded number of times, and say so.
			if redone++; redone > rounds {
				return res, fmt.Errorf("bench: %d failover rounds spoiled by false suspicions; the machine is too busy for a %v suspicion window", redone, failoverSuspect)
			}
			r--
			continue
		}
		res.Attempted += round.ops + round.failed
		res.Failed += round.failed
		for _, v := range round.violationText {
			res.violate(v)
		}
		res.ViolationCount += round.violations - len(round.violationText)
		if round.ops == 0 || round.grants == 0 {
			return res, fmt.Errorf("bench: failover round %d completed nothing", r)
		}
		ops := float64(round.ops)
		lat = append(lat, round.latUs...)
		per["ops_per_s"] = append(per["ops_per_s"], ops/round.elapsed.Seconds())
		per["msgs_per_grant"] = append(per["msgs_per_grant"], float64(round.msgs)/float64(round.grants))
		per["allocs_per_op"] = append(per["allocs_per_op"], float64(round.mallocs)/ops)
		per["heap_inuse_mb"] = append(per["heap_inuse_mb"], float64(round.heapInuse)/(1<<20))
		per["setup_s"] = append(per["setup_s"], round.setup.Seconds())
		per["failed_share"] = append(per["failed_share"], float64(round.failed)/float64(round.ops+round.failed))
		per["outage_ms_p50"] = append(per["outage_ms_p50"], float64(round.outage)/1e6)
		if round.detect > 0 {
			detect = append(detect, float64(round.detect)/1e6)
			repair = append(repair, float64(round.outage-round.detect)/1e6)
		}
	}
	if redone > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d round(s) redone: a live node was declared down (heartbeats stalled past the %v suspicion window), which measures the machine, not the failover path",
			redone, failoverSuspect))
	}
	if mode != modeTraced {
		for name, vs := range per {
			res.setE2E(name, vs, 0)
		}
		res.setE2E("acquire_p50_us", []float64{percentile(lat, 50)}, len(lat))
		res.setE2E("acquire_p99_us", []float64{percentile(lat, 99)}, len(lat))
	}
	if mode != modeUntraced {
		res.setLayer("acquire_p99_us", percentile(lat, 99))
		res.setLayer("outage_ms_p50", median(per["outage_ms_p50"]))
		res.setLayer("failure.detect_ms_p50", median(detect))
		res.setLayer("failure.repair_ms_p50", median(repair))
	}
	return res, nil
}
