package dagmutex_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"dagmutex"
	"dagmutex/internal/workload"
)

// TestLockServiceQuickstart exercises the re-exported lock-service API the
// way the README shows it: named resources, sharded concurrency, stats.
func TestLockServiceQuickstart(t *testing.T) {
	svc, err := dagmutex.OpenLockService(dagmutex.LockServiceConfig{Shards: 4, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	balances := map[string]int{"alice": 100, "bob": 0}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if _, err := svc.Acquire(ctx, "account:alice"); err != nil {
					t.Error(err)
					return
				}
				balances["alice"]--
				balances["bob"]++
				if err := svc.Release("account:alice"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if balances["alice"] != 0 || balances["bob"] != 100 {
		t.Fatalf("balances = %v, want alice=0 bob=100", balances)
	}
	if st := svc.Stats(); st.Grants != 100 {
		t.Fatalf("grants = %d, want 100", st.Grants)
	}
	if err := svc.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestLockServiceDrivenByMultiResourceWorkload wires the workload driver
// to the real service.
func TestLockServiceDrivenByMultiResourceWorkload(t *testing.T) {
	svc, err := dagmutex.OpenLockService(dagmutex.LockServiceConfig{Shards: 8, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	w := workload.MultiResource{Workers: 8, Ops: 25, Resources: 32, Seed: 11}
	res, err := w.Run(context.Background(), svc)
	if err != nil {
		t.Fatal(err)
	}
	if want := 8 * 25; res.Ops != want {
		t.Fatalf("ops = %d, want %d", res.Ops, want)
	}
	st := svc.Stats()
	if st.Grants != int64(res.Ops) {
		t.Fatalf("service grants = %d, workload ops = %d", st.Grants, res.Ops)
	}
	if err := svc.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestLockServiceClientsOnDistinctNodes locks through per-member clients.
func TestLockServiceClientsOnDistinctNodes(t *testing.T) {
	svc, err := dagmutex.OpenLockService(dagmutex.LockServiceConfig{Shards: 2, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ctx := context.Background()
	// Per-key counters: keys on different shards are held concurrently by
	// design, so only same-key increments are serialized by the lock.
	counters := make([]int, 10)
	var wg sync.WaitGroup
	for n := 1; n <= 4; n++ {
		c, err := svc.On(dagmutex.ID(n))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				key := fmt.Sprintf("row-%d", j)
				if _, err := c.Acquire(ctx, key); err != nil {
					t.Error(err)
					return
				}
				counters[j]++
				if err := c.Release(key); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	total := 0
	for _, c := range counters {
		total += c
	}
	if total != 40 {
		t.Fatalf("counter total = %d, want 40", total)
	}
}
