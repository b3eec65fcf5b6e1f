// clients is the member/client split end to end: a small DAG of member
// nodes arbitrates a sharded lock service over TCP, and a much larger
// population of lightweight clients — processes that are NOT vertices
// of the token DAG — dials in and locks named resources through the
// members. Clients cost a connection and a queue slot, not a vertex in
// the token topology, so the client population scales far past the
// tree: this demo runs 4× more clients than members (the repository
// benchmark's client_direct_hot and client_gateway_spread workloads
// measure what the dialed path costs).
//
//	go run ./examples/clients -members 3 -clients 12
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"dagmutex"
)

func main() {
	members := flag.Int("members", 3, "DAG member nodes (the arbitration cluster)")
	clients := flag.Int("clients", 12, "dialed non-member clients driving the load")
	ops := flag.Int("ops", 25, "lock cycles per client")
	short := flag.Bool("short", false, "smoke mode: fewer clients and ops")
	flag.Parse()
	if *short {
		*clients, *ops = 4, 5
	}
	if err := run(*members, *clients, *ops); err != nil {
		log.Fatal(err)
	}
}

func run(members, clients, ops int) error {
	// The member cluster: one lock-service member per process-equivalent,
	// each behind its own TCP listener, serving both its peers (DAG token
	// traffic) and its dialed clients (the CLIENT wire protocol) on the
	// same port.
	cfg := dagmutex.LockServiceConfig{Shards: 4, Nodes: members}
	services := make([]*dagmutex.LockService, members)
	book := make(map[dagmutex.ID]string, members)
	for m := 1; m <= members; m++ {
		svc, err := dagmutex.OpenLockService(cfg,
			dagmutex.WithTransport(dagmutex.TCP("")), dagmutex.WithMember(dagmutex.ID(m)))
		if err != nil {
			return err
		}
		defer svc.Close()
		services[m-1] = svc
		book[dagmutex.ID(m)] = svc.Addr()
	}
	for _, svc := range services {
		if err := svc.Connect(book); err != nil {
			return err
		}
	}
	fmt.Printf("%d DAG members up; dialing %d clients (%.0fx the member count)\n",
		members, clients, float64(clients)/float64(members))

	// The client population: each dials one member (round-robin) and
	// locks accounts through it. None of these are DAG vertices — the
	// token topology never changes as this number grows.
	conns := make([]*dagmutex.RemoteLockClient, clients)
	for i := range conns {
		c, err := dagmutex.DialLockService(book[dagmutex.ID(1+i%members)])
		if err != nil {
			return err
		}
		defer c.Close()
		conns[i] = c
	}

	// Balances are deliberately unsynchronized Go state: only the lock
	// service makes the concurrent increments safe, and every hold's
	// fence arrives over the wire strictly monotonic per account.
	const accounts = 8
	balances := make([]int, accounts)
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *dagmutex.RemoteLockClient) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			for j := 0; j < ops; j++ {
				acct := (i + j) % accounts
				key := fmt.Sprintf("account:%d", acct)
				hold, err := c.Acquire(ctx, key)
				if err != nil {
					errs[i] = err
					return
				}
				balances[acct]++ // critical section, fenced by hold.Fence
				if err := c.ReleaseHold(hold); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
	}

	total := 0
	for _, b := range balances {
		total += b
	}
	fmt.Printf("%d client lock cycles in %v — total balance %d (want %d)\n",
		clients*ops, time.Since(start).Round(time.Millisecond), total, clients*ops)
	var grants int64
	for m, svc := range services {
		if err := svc.Err(); err != nil {
			return fmt.Errorf("member %d: %w", m+1, err)
		}
		grants += svc.Stats().Grants
	}
	fmt.Printf("members granted %d holds; the DAG stayed %d vertices throughout\n", grants, members)
	return nil
}
