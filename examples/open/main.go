// open tours the v2 options-first API: one entrypoint, dagmutex.Open,
// composes everything the seven pre-v2 constructors hard-wired — here
// the full stack at once: runtime INIT orientation (the thesis's
// Figure 5 flood instead of static configuration), heartbeat failure
// detection with DAG repair and token regeneration, and a trace
// observer streaming the protocol's own recovery events while a crashed
// holder is excised.
//
//	go run ./examples/open
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"dagmutex"
)

func main() {
	flag.Bool("short", false, "smoke mode (the demo is already short)")
	flag.Parse()
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// One call, every subsystem: WithINIT derives the DAG orientation at
	// runtime (Open blocks, event-driven, until the flood completes),
	// WithFailureDetection arms the failure subsystem, and
	// WithTraceObserver taps the recovery machinery: its RECOVERY events.
	events := make(chan dagmutex.TraceEvent, 256)
	cluster, err := dagmutex.Open(dagmutex.KAry(7, 2), 4,
		dagmutex.WithINIT(),
		dagmutex.WithFailureDetection(dagmutex.FailureConfig{
			Heartbeat:    10 * time.Millisecond,
			SuspectAfter: 100 * time.Millisecond,
		}),
		dagmutex.WithTraceObserver(func(e dagmutex.TraceEvent) {
			if e.Kind == dagmutex.TraceRecovery {
				select {
				case events <- e:
				default:
				}
			}
		}),
		dagmutex.WithStartupContext(context.Background()),
	)
	if err != nil {
		return err
	}
	defer cluster.Close()
	fmt.Println("7 nodes opened: INIT flood oriented the DAG, detectors armed")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// The token works as always...
	g, err := cluster.Session(4).Acquire(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("node 4 (the INIT holder) acquired with fencing generation %d\n", g.Generation)
	if err := cluster.Session(4).Release(); err != nil {
		return err
	}

	// ...and when the current holder dies, the observer narrates the
	// recovery the survivors run.
	if _, err := cluster.Session(7).Acquire(ctx); err != nil {
		return err
	}
	if err := cluster.Kill(7); err != nil {
		return err
	}
	fmt.Println("node 7 killed while holding; recovery events:")
	g2, err := cluster.Session(1).Acquire(ctx)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for len(events) > 0 {
		e := <-events
		if !seen[e.Detail] {
			seen[e.Detail] = true
			fmt.Printf("  %-12s node=%d peer=%d epoch=%d\n", e.Detail, e.Node, e.Peer, e.Epoch)
		}
	}
	fmt.Printf("node 1 acquired after recovery; generation jumped to %d (+%d over the dead holder's world)\n",
		g2.Generation, g2.Generation-g.Generation)
	if err := cluster.Session(1).Release(); err != nil {
		return err
	}
	if err := cluster.Err(); err != nil {
		return fmt.Errorf("cluster error: %w (a crash must not be cluster-fatal)", err)
	}
	fmt.Println("no cluster error: one Open call composed INIT x chaos x observer")
	return nil
}
