package workload

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dagmutex/internal/lockservice"
)

// Locker is the surface a multi-resource workload drives: the sharded
// lock service implements it, and tests can substitute an in-memory lock
// table. Acquire returns the hold's fencing token and lease deadline;
// ReleaseHold releases that exact hold, so an expired lease is reported
// precisely (ErrLeaseExpired) even when the slot has moved on to other
// resources in the meantime.
type Locker interface {
	Acquire(ctx context.Context, resource string) (lockservice.Hold, error)
	ReleaseHold(h lockservice.Hold) error
}

// KeyChooser picks the next resource index in [0, n).
type KeyChooser func(rng *rand.Rand) int

// UniformKeys chooses each of n resources equally often.
func UniformKeys(n int) KeyChooser {
	return func(rng *rand.Rand) int { return rng.Intn(n) }
}

// ZipfKeys chooses among n resources with Zipf-skewed popularity: rank r
// is drawn proportionally to 1/(r+1)^s. Real multi-tenant lock traffic is
// skewed — a few hot keys dominate — and skew is exactly what stresses a
// sharded service, since the shard owning the hottest key bounds its
// scaling. s must exceed 1 (rand.Zipf's requirement); s <= 1 falls back
// to uniform.
func ZipfKeys(s float64, n int) KeyChooser {
	if s <= 1 || n <= 1 {
		return UniformKeys(n)
	}
	// rand.Zipf is tied to one rng, but each worker draws from its own;
	// build one Zipf per rng lazily. sync.Map keeps the steady-state draw
	// path lock-free so the chooser adds no cross-worker contention to
	// the throughput it helps measure.
	var zipfs sync.Map // *rand.Rand -> *rand.Zipf
	return func(rng *rand.Rand) int {
		z, ok := zipfs.Load(rng)
		if !ok {
			z, _ = zipfs.LoadOrStore(rng, rand.NewZipf(rng, s, 1, uint64(n-1)))
		}
		return int(z.(*rand.Zipf).Uint64())
	}
}

// ResourceKey names resource index k; the workload and the benchmark
// share it so key→shard assignments line up across runs.
func ResourceKey(k int) string { return fmt.Sprintf("res-%d", k) }

// MultiResource is a closed-loop workload over many named resources:
// Workers goroutines each perform Ops acquire→hold→release cycles,
// drawing keys from Keys. It is the live-runtime counterpart of Closed,
// generalized from one critical section to a keyed lock space.
type MultiResource struct {
	// Workers is the number of concurrent closed-loop clients. Default 8.
	Workers int
	// Ops is the number of lock cycles each worker performs. Default 100.
	Ops int
	// Resources is the number of distinct resource keys. Default 64.
	Resources int
	// Keys picks the next key index; default ZipfKeys(1.1, Resources).
	Keys KeyChooser
	// Hold is how long a worker dwells inside each critical section,
	// modeling the protected work. Default 0 (saturation, as in §6.2's
	// heavy-demand regime).
	Hold time.Duration
	// Seed derives each worker's private rng. Default 1.
	Seed int64
	// Clients, when non-empty, spreads workers round-robin over these
	// lockers (worker i uses Clients[i%len]). This is how a run models
	// distinct member nodes of a distributed deployment, making the token
	// actually travel; when empty, every worker drives the Locker passed
	// to Run.
	Clients []Locker
}

func (w MultiResource) withDefaults() MultiResource {
	if w.Workers <= 0 {
		w.Workers = 8
	}
	if w.Ops <= 0 {
		w.Ops = 100
	}
	if w.Resources <= 0 {
		w.Resources = 64
	}
	if w.Keys == nil {
		w.Keys = ZipfKeys(1.1, w.Resources)
	}
	if w.Seed == 0 {
		w.Seed = 1
	}
	return w
}

// MultiResourceResult reports one run.
type MultiResourceResult struct {
	// Ops is the number of completed acquire→release cycles.
	Ops int
	// MaxFence is the highest fencing token any worker was granted.
	MaxFence uint64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
}

// Throughput returns completed operations per second.
func (r MultiResourceResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// Dwell holds the calling goroutine inside the critical section for d,
// as precisely as the platform allows. time.Sleep rounds short sleeps up
// to the kernel timer tick — on coarse-tick hosts a 100µs sleep takes
// over a millisecond — which would make every sub-millisecond hold
// sleep-bound and mask the very lock path the benchmarks measure. The
// dwell models a holder doing real protected work, so spending the
// holder's own time is exactly the model: dwells at or below dwellSpin
// yield-spin on the monotonic clock, and longer dwells sleep for the
// bulk and spin only the final stretch.
func Dwell(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	if d > dwellSpin {
		time.Sleep(d - dwellSpin)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// dwellSpin bounds how much of a dwell is spent yield-spinning rather
// than sleeping: generous enough to absorb a coarse kernel tick, small
// enough that long dwells still mostly sleep.
const dwellSpin = 2 * time.Millisecond

// Run drives l until every worker finishes its ops or one fails; the
// first error cancels the remaining workers at their next acquire.
func (w MultiResource) Run(ctx context.Context, l Locker) (MultiResourceResult, error) {
	w = w.withDefaults()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		done     atomic.Int64
		maxFence atomic.Uint64
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		cancel()
	}
	start := time.Now()
	for i := 0; i < w.Workers; i++ {
		rng := rand.New(rand.NewSource(w.Seed + int64(i)*7919))
		worker := l
		if len(w.Clients) > 0 {
			worker = w.Clients[i%len(w.Clients)]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := 0; op < w.Ops; op++ {
				if ctx.Err() != nil {
					return
				}
				key := ResourceKey(w.Keys(rng))
				hold, err := worker.Acquire(ctx, key)
				if err != nil {
					if ctx.Err() == nil {
						fail(err)
					}
					return
				}
				for {
					cur := maxFence.Load()
					if hold.Fence <= cur || maxFence.CompareAndSwap(cur, hold.Fence) {
						break
					}
				}
				Dwell(w.Hold)
				if err := worker.ReleaseHold(hold); err != nil {
					fail(err)
					return
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	res := MultiResourceResult{
		Ops:      int(done.Load()),
		MaxFence: maxFence.Load(),
		Elapsed:  time.Since(start),
	}
	if firstErr != nil {
		return res, firstErr
	}
	return res, ctx.Err()
}
