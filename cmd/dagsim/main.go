// Command dagsim runs one mutual-exclusion scenario on the deterministic
// simulator and reports the Chapter 6 metrics: messages per entry,
// synchronization delay and mean waiting time.
//
// Usage:
//
//	dagsim -algo dag -topo star -n 25 -requests 10 -think 5 -seed 7
//
// Topologies (-topo): star (the default), line, kary2 (alias binary),
// kary4, kary8, radial, radiating (n-1 must be composite) and random
// (seeded). Algorithms (-algo): the paper's dag and the eight baselines;
// see -algo list.
//
// Both modes run on the repository's one simulator and any of the nine
// protocols; -virtual selects the scenario and its vocabulary, not an
// engine. Without it the run is closed-loop in hop ticks — a fixed number
// of entries per node, unit message latency, run to quiescence — and
// reports the thesis metrics. With it the run is open-loop in wall-clock
// terms (internal/simharness's driver): a seeded 0.2–2 ms delay per
// message, requesters that think and hold for a simulated duration —
// 1000+ nodes, simulated hours in wall-clock seconds:
//
//	dagsim -virtual -n 1000 -requesters 100 -duration 1h -seed 42
//	dagsim -virtual -algo ricart-agrawala -n 200 -requesters 20 -duration 1m
//
// -compress (path compression) is the DAG's alone, and so is the epoch
// recovery the open-loop harness can exercise.
//
// and -capacity sweeps the capacity-planning grid (nodes x shards x
// requesters), writing BENCH-style JSON:
//
//	dagsim -virtual -capacity -out BENCH_sim.json
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	"dagmutex"
	"dagmutex/internal/topology"
)

func main() {
	algo := flag.String("algo", "dag", "algorithm (or 'list' to enumerate)")
	topo := flag.String("topo", "star", "logical topology: star, line, kary2 (binary), kary4, kary8, radial, radiating, random")
	n := flag.Int("n", 15, "number of nodes")
	holder := flag.Int("holder", 1, "initial token holder / coordinator")
	requests := flag.Int("requests", 10, "critical-section entries per node")
	think := flag.Float64("think", 10, "mean think time between entries, in message hops (0 = heavy demand)")
	cs := flag.Float64("cs", 0.5, "critical-section duration in hops")
	seed := flag.Int64("seed", 1, "random seed")
	virtual := flag.Bool("virtual", false, "run the open-loop scenario in wall-clock terms (seeded per-message delays, -duration of simulated time) instead of the closed-loop hop-tick one")
	duration := flag.Duration("duration", 10*time.Minute, "simulated run length (-virtual only)")
	requesters := flag.Int("requesters", 0, "requesting nodes, 0 = all (-virtual only)")
	compress := flag.Bool("compress", false, "enable path compression (-virtual, dag only)")
	capacity := flag.Bool("capacity", false, "sweep the capacity grid instead of one run (-virtual only)")
	out := flag.String("out", "-", "capacity JSON output path, - for stdout (-virtual -capacity only)")
	flag.Parse()

	var err error
	switch {
	case *capacity:
		err = runCapacity(*out, *duration, *seed)
	case *virtual:
		err = runVirtual(os.Stdout, *algo, *topo, *n, *holder, *requesters, *duration, *seed, *compress)
	default:
		err = run(os.Stdout, *algo, *topo, *n, *holder, *requests, *think, *cs, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dagsim:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, algo, topo string, n, holder, requests int, think, cs float64, seed int64) error {
	if algo == "list" {
		fmt.Fprintln(w, strings.Join(dagmutex.AlgorithmNames(), "\n"))
		return nil
	}
	tree, err := topology.Named(topo, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	res, err := dagmutex.Simulate(tree, dagmutex.ID(holder), dagmutex.SimOptions{
		Algorithm:       algo,
		RequestsPerNode: requests,
		ThinkHops:       think,
		CSTimeHops:      cs,
		Seed:            seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "algorithm            %s\n", res.Algorithm)
	fmt.Fprintf(w, "topology             %s (N=%d, D=%d)\n", tree.Name(), tree.N(), tree.Diameter())
	fmt.Fprintf(w, "entries              %d\n", res.Entries)
	fmt.Fprintf(w, "messages             %d\n", res.Messages)
	fmt.Fprintf(w, "messages / entry     %.3f\n", res.MessagesPerEntry)
	fmt.Fprintf(w, "sync delay (hops)    mean %.2f  max %.2f\n", res.MeanSyncDelayHops, res.MaxSyncDelayHops)
	fmt.Fprintf(w, "wait to grant (hops) mean %.2f\n", res.MeanWaitHops)
	return nil
}
