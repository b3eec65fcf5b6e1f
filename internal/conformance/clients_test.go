package conformance

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dagmutex/internal/client"
	"dagmutex/internal/lockservice"
	"dagmutex/internal/telemetry"
	"dagmutex/internal/transport"
)

// TestClientBatteryOverBothAccessPaths runs the member/client split's
// conformance battery: dialed non-member clients must see identical
// semantics whether the members run on in-process mailboxes behind a
// client gateway, over TCP serving clients on their own listeners, or
// behind the gateway tier multiplexing them over every member.
func TestClientBatteryOverBothAccessPaths(t *testing.T) {
	RunClients(t, ClientSubstrates())
}

// severingBackend is a member's backend that loses its client the moment
// a run has been reserved for it: AcquireRun returns into a connection
// that is already gone.
type severingBackend struct {
	transport.ClientBackend
	runs  transport.RunBackend
	sever func()
	last  atomic.Uint64 // last fence of the run reserved for the lost client
}

func (b *severingBackend) AcquireRun(ctx context.Context, resource string) (uint64, time.Time, int, error) {
	first, expires, run, err := b.runs.AcquireRun(ctx, resource)
	if err == nil && b.last.CompareAndSwap(0, first+uint64(run-1)) {
		b.sever()
	}
	return first, expires, run, err
}

func (b *severingBackend) ReleaseRun(resource string, last uint64, used int, more bool) error {
	return b.runs.ReleaseRun(resource, last, used, more)
}

func (b *severingBackend) Shards() int { return b.runs.Shards() }

// TestRunIsReservedBeforeItIsAnswered kills a connection between the
// member's reservation of a run and the answer that would have announced
// it. The fences were taken from the generation before anything was
// written, so the client's death cannot hand them to anyone: the hold is
// given back like any dead client's, at once, and the next grant carries
// a fence above the whole lost run.
func TestRunIsReservedBeforeItIsAnswered(t *testing.T) {
	svc, err := lockservice.New(lockservice.Config{Shards: 1, Nodes: 2, Lease: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	inner, err := svc.ClientBackend(1)
	if err != nil {
		t.Fatal(err)
	}
	lost := make(chan struct{})
	var doomed *client.Conn
	b := &severingBackend{ClientBackend: inner, runs: inner.(transport.RunBackend), sever: func() {
		_ = doomed.Close()
		close(lost)
	}}
	gw, err := transport.NewClientGateway("", b)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if doomed, err = client.Dial(gw.Addr()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// One caller holds while three more gather: the second of them finds
	// a crowd and orders the run.
	h, err := doomed.Acquire(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		go func() {
			if h, err := doomed.Acquire(ctx, "k"); err == nil {
				_ = doomed.ReleaseHold(h) // the ordinary grant ahead of the order
			}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); gw.Stats().Admitted < 3; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d acquires reached the member, want the holder's, one ordinary and the order", gw.Stats().Admitted)
		}
	}
	// The release sets the chain off — the ordinary grant, its release,
	// the run — and the connection may be gone before its own answer is.
	_ = doomed.ReleaseHold(h)
	select {
	case <-lost:
	case <-ctx.Done():
		t.Fatal("no run was ever reserved")
	}

	fresh, err := client.Dial(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	quick, cancelQuick := context.WithTimeout(ctx, 5*time.Second) // far inside the lost run's one-minute lease
	defer cancelQuick()
	next, err := fresh.Acquire(quick, "k")
	if err != nil {
		t.Fatalf("acquire after the run's client died: %v", err)
	}
	if last := b.last.Load(); next.Fence <= last || last < h.Fence+2 {
		t.Fatalf("next grant carries fence %d; the lost run ended at %d (holder had %d)", next.Fence, last, h.Fence)
	}
	if err := fresh.ReleaseHold(next); err != nil {
		t.Fatal(err)
	}
}

// TestShardLanesPassRunsAcrossKeys: one connection, eight callers over
// sixteen keys of a lock service. With one shard every key is one lock:
// never are two callers inside at once, fences rise strictly across
// keys, and the member's run counters show runs ordered for one key
// serving callers on others. With four shards the same holds per shard.
func TestShardLanesPassRunsAcrossKeys(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			svc, err := lockservice.New(lockservice.Config{Shards: shards, Nodes: 2, Lease: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			backend, err := svc.ClientBackend(1)
			if err != nil {
				t.Fatal(err)
			}
			gw, err := transport.NewClientGateway("", backend)
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()
			reg := telemetry.NewRegistry()
			gw.Register(reg)
			c, err := client.Dial(gw.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			const callers, cycles, keys = 8, 100, 16
			inside := make([]atomic.Int64, shards)
			last := make([]atomic.Uint64, shards) // written only inside the shard's critical section
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for j := 0; j < cycles; j++ {
						key := fmt.Sprintf("key-%d", (i*5+j)%keys)
						sh := lockservice.KeyShard(key, shards)
						h, err := c.Acquire(ctx, key)
						if err != nil {
							t.Errorf("caller %d acquire %q: %v", i, key, err)
							return
						}
						if n := inside[sh].Add(1); n != 1 {
							t.Errorf("%d callers inside shard %d at once", n, sh)
						}
						if prev := last[sh].Load(); h.Fence <= prev {
							t.Errorf("shard %d: fence %d for %q after %d", sh, h.Fence, key, prev)
						}
						last[sh].Store(h.Fence)
						inside[sh].Add(-1)
						if err := c.ReleaseHold(h); err != nil {
							t.Errorf("caller %d release %q: %v", i, key, err)
							return
						}
					}
				}(i)
			}
			wg.Wait()
			var text strings.Builder
			if err := reg.WritePrometheus(&text); err != nil {
				t.Fatal(err)
			}
			counters := make(map[string]string)
			for _, line := range strings.Split(text.String(), "\n") {
				if name, value, ok := strings.Cut(line, " "); ok {
					counters[name] = value
				}
			}
			runs, used := counters["dagmutex_client_runs_total"], counters["dagmutex_client_run_fences_used_total"]
			if runs == "0" || used == "0" || runs == "" || used == "" {
				t.Fatalf("member counted %s runs and %s run fences used: no run served the crowd", runs, used)
			}
			t.Logf("%d grants: %s runs, %s of their fences used", callers*cycles, runs, used)
		})
	}
}
