package lockservice

import (
	"context"
	"testing"
	"time"

	"dagmutex/internal/failure"
	"dagmutex/internal/telemetry"
)

// keyInShard returns a resource name hashing to the given shard.
func keyInShard(t *testing.T, shard, shards int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := "res-" + string(rune('a'+i%26)) + "-" + time.Duration(i).String()
		if KeyShard(k, shards) == shard {
			return k
		}
	}
	t.Fatal("no key found for shard")
	return ""
}

// TestShardFailoverOnMemberCrash is the lock-service acceptance scenario:
// the member holding a shard's token crashes mid-hold. With failure
// detection armed, the shard's surviving members excise it and
// regenerate the token, so a waiting Acquire on another member completes
// within two lease intervals — under a fencing token strictly above the
// dead holder's — without waiting for any lease machinery.
func TestShardFailoverOnMemberCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-dependent fault injection; skipped in -short")
	}
	const lease = 500 * time.Millisecond
	inj := failure.NewInjector()
	svc, err := New(Config{
		Shards:        2,
		Nodes:         3,
		Lease:         lease,
		SweepInterval: 20 * time.Millisecond,
		// Telemetry without a trace observer: each shard subscribes to
		// its members' recovery events alone, for Stats.Recoveries.
		Telemetry: telemetry.NewRegistry(),
		Transport: LocalTransport{
			Failure:  &failure.Config{Heartbeat: 10 * time.Millisecond, SuspectAfter: 120 * time.Millisecond},
			Injector: inj,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Shard 0's home (and initial token holder) is member 1; pick a
	// resource living there and have member 1 hold it when it dies.
	res := keyInShard(t, 0, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c1, err := svc.On(1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := svc.On(2)
	if err != nil {
		t.Fatal(err)
	}
	hold, err := c1.Acquire(ctx, res)
	if err != nil {
		t.Fatal(err)
	}
	if hold.Fence == 0 {
		t.Fatal("hold carries no fencing token")
	}

	type res2 struct {
		h   Hold
		err error
	}
	waiting := make(chan res2, 1)
	go func() {
		h, err := c2.Acquire(ctx, res)
		waiting <- res2{h, err}
	}()
	time.Sleep(50 * time.Millisecond) // queue the waiter behind the doomed holder

	killedAt := time.Now()
	inj.Crash(1) // member 1 falls silent in every shard at once

	r := <-waiting
	elapsed := time.Since(killedAt)
	if r.err != nil {
		t.Fatalf("waiter acquire after holder crash: %v", r.err)
	}
	if elapsed > 2*lease {
		t.Fatalf("failover took %v, want under two lease intervals (%v)", elapsed, 2*lease)
	}
	t.Logf("shard failover in %v (fence %d -> %d)", elapsed, hold.Fence, r.h.Fence)
	if r.h.Fence <= hold.Fence {
		t.Fatalf("post-failover fence %d not above dead holder's %d", r.h.Fence, hold.Fence)
	}
	if err := c2.ReleaseHold(r.h); err != nil {
		t.Fatal(err)
	}

	// The shard stays live for subsequent holders with monotonic fences,
	// and untouched shards never noticed.
	c3, err := svc.On(3)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c3.Acquire(ctx, res)
	if err != nil {
		t.Fatalf("third member acquire after failover: %v", err)
	}
	if again.Fence <= r.h.Fence {
		t.Fatalf("fence %d not above %d", again.Fence, r.h.Fence)
	}
	if err := c3.ReleaseHold(again); err != nil {
		t.Fatal(err)
	}
	other := keyInShard(t, 1, 2)
	oh, err := c3.Acquire(ctx, other)
	if err != nil {
		t.Fatalf("other shard acquire: %v", err)
	}
	if err := c3.ReleaseHold(oh); err != nil {
		t.Fatal(err)
	}
	if err := svc.Err(); err != nil {
		t.Fatalf("service error after failover: %v (a member crash must not be service-fatal)", err)
	}
	if n := svc.Stats().PerShard[0].Recoveries; n == 0 {
		t.Fatal("shard 0 counted no recovery events")
	}
}
