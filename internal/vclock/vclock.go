// Package vclock abstracts time for every layer that stamps or schedules:
// a Clock interface with two implementations. Real delegates to package
// time and is what production code runs on; Virtual is a deterministic
// fake whose time advances only when the test or harness says so, built
// on internal/sched's event queue (one tick = one nanosecond), so
// simulated hours of lease churn and heartbeat traffic complete in
// milliseconds of wall clock.
//
// The repository's subsystems take a Clock where they would call
// time.Now / time.AfterFunc directly — the runtime's grant timestamps and
// lease sweeper, the lock service's lease deadlines, the failure
// detector's heartbeat loop, the gateway's reconnect backoff — threaded
// from the facade's WithClock option. A nil Clock everywhere means Real,
// so existing callers are untouched. The periodic loops among them (the
// sweeper, the heartbeat) are one helper, Every. The simulator
// (internal/sim) schedules its events on a Virtual's owner-only queue.
package vclock

import (
	"sync"
	"time"
)

// Clock is the time surface the subsystems consume. All methods mirror
// their package-time counterparts.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Since returns Now().Sub(t).
	Since(t time.Time) time.Duration
	// Until returns t.Sub(Now()).
	Until(t time.Time) time.Duration
	// AfterFunc schedules fn to run once, d from now, and returns a
	// Timer whose Stop/Reset control the scheduling. On a Virtual clock
	// fn runs on the goroutine advancing time; on Real it runs on its own
	// goroutine, exactly like time.AfterFunc.
	AfterFunc(d time.Duration, fn func()) Timer
}

// Timer controls an AfterFunc scheduling; Stop and Reset follow
// time.Timer's contracts. *time.Timer is one.
type Timer interface {
	// Stop withdraws the timer, reporting whether it was still armed.
	Stop() bool
	// Reset re-arms the timer for d from now, reporting whether it was
	// still armed.
	Reset(d time.Duration) bool
}

// Real is the production clock: every method delegates to package time.
// The zero value is ready to use and stateless.
type Real struct{}

var system Clock = Real{}

// System returns the shared Real clock.
func System() Clock { return system }

// Or returns c, or the shared Real clock when c is nil — the idiom every
// subsystem applies to its optional Clock configuration field.
func Or(c Clock) Clock {
	if c == nil {
		return system
	}
	return c
}

func (Real) Now() time.Time                  { return time.Now() }
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }
func (Real) Until(t time.Time) time.Duration { return time.Until(t) }

func (Real) AfterFunc(d time.Duration, fn func()) Timer { return time.AfterFunc(d, fn) }

// Every runs fn every d on clk (nil: the real clock) until stop is
// called: a chain of AfterFunc timers in which each tick runs fn and then
// re-arms, so ticks never overlap, no goroutine exists between them, and
// on a Virtual clock they run on the advancing goroutine. No tick starts
// after stop returns; one already running finishes fn and does not
// re-arm. stop may be called more than once, from any goroutine.
func Every(clk Clock, d time.Duration, fn func()) (stop func()) {
	var mu sync.Mutex
	var timer Timer // nil once stopped; guarded by mu
	mu.Lock()
	defer mu.Unlock()
	timer = Or(clk).AfterFunc(d, func() {
		mu.Lock()
		running := timer != nil
		mu.Unlock()
		if running {
			fn()
			mu.Lock()
			if timer != nil {
				timer.Reset(d)
			}
			mu.Unlock()
		}
	})
	return func() {
		mu.Lock()
		defer mu.Unlock()
		if timer != nil {
			timer.Stop()
			timer = nil
		}
	}
}
