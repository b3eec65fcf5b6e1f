package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Locker is what a caller of every live workload drives: a member's
// lock-service client, a dialed connection to a member, or a dialed
// connection to the gateway. Acquire blocks for the grant and returns its
// fencing token; Release gives back exactly that hold.
type Locker interface {
	Acquire(ctx context.Context, key string) (fence uint64, err error)
	Release(key string, fence uint64) error
}

// checker is the safety oracle every run carries. Callers bracket their
// dwell with enter/exit: a key may have one holder at a time, and the
// fences seen inside the holds of one shard must strictly increase (one
// token per shard serializes every grant of that shard, so the swap below
// is itself ordered by the mutual exclusion it checks).
type checker struct {
	held      []atomic.Bool   // per key
	lastFence []atomic.Uint64 // per shard

	mu         sync.Mutex
	violations []string
	count      int
}

func newChecker(keys, shards int) *checker {
	return &checker{held: make([]atomic.Bool, keys), lastFence: make([]atomic.Uint64, shards)}
}

// enter records the start of a hold on key (an index) in shard under fence.
func (c *checker) enter(key, shard int, fence uint64) {
	if !c.held[key].CompareAndSwap(false, true) {
		c.fail("key %d granted under fence %d while another holder is inside", key, fence)
	}
	if prev := c.lastFence[shard].Swap(fence); prev >= fence {
		c.fail("shard %d fence %d granted after %d", shard, fence, prev)
	}
}

// exit records the end of the hold; call it before Release so the next
// grant of the key can never overlap this one from the checker's view.
func (c *checker) exit(key int) { c.held[key].Store(false) }

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	c.count++
	if len(c.violations) < 8 { // one storm, not a million lines
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// result returns how many violations were seen and the first few.
func (c *checker) result() (int, []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count, append([]string(nil), c.violations...)
}
