// Package vclock abstracts time for every layer that sleeps, ticks or
// stamps: a Clock interface with two implementations. Real delegates to
// package time and is what production code runs on; Virtual is a
// deterministic fake whose time advances only when the test or harness
// says so, built on internal/sched's event queue (one tick = one
// nanosecond), so simulated hours of lease churn and heartbeat traffic
// complete in milliseconds of wall clock.
//
// The repository's subsystems take a Clock where they used to call
// time.Now / time.NewTimer directly — the lock service's lease sweeper,
// the failure detector's heartbeat loop, the runtime proxy's expiry
// timers, the gateway's reconnect backoff, the Local transport's delay
// lines — threaded from the facade's WithClock option. A nil Clock
// everywhere means Real, so existing callers are untouched. The periodic
// loops among them (the sweeper, the heartbeat) are one helper, Every.
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
	// Sleep blocks the calling goroutine for d of this clock's time.
	// On a Virtual clock only goroutines registered with Go (or
	// otherwise accounted for) may Sleep; see Virtual.
	Sleep(d time.Duration)
	// After returns a channel that receives the clock's time once, d
	// from now.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a timer that fires once, d from now.
	NewTimer(d time.Duration) Timer
	// NewTicker returns a ticker firing every d. d must be positive.
	NewTicker(d time.Duration) Ticker
	// AfterFunc schedules fn to run once, d from now, and returns a
	// Timer whose Stop/Reset control the scheduling (its C is nil). On a
	// Virtual clock fn runs on the goroutine advancing time; on Real it
	// runs on its own goroutine, exactly like time.AfterFunc.
	AfterFunc(d time.Duration, fn func()) Timer
}

// Timer is the clock-agnostic *time.Timer: C fires at most once per
// arming; Stop and Reset follow time.Timer's contracts.
type Timer interface {
	C() <-chan time.Time
	// Stop withdraws the timer, reporting whether it was still armed.
	Stop() bool
	// Reset re-arms the timer for d from now, reporting whether it was
	// still armed. Like time.Timer.Reset, callers that care about a
	// pending C value must have drained it.
	Reset(d time.Duration) bool
}

// Ticker is the clock-agnostic *time.Ticker.
type Ticker interface {
	C() <-chan time.Time
	Stop()
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

func (Real) Now() time.Time                         { return time.Now() }
func (Real) Since(t time.Time) time.Duration        { return time.Since(t) }
func (Real) Until(t time.Time) time.Duration        { return time.Until(t) }
func (Real) Sleep(d time.Duration)                  { time.Sleep(d) }
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

func (Real) NewTimer(d time.Duration) Timer { return realTimer{t: time.NewTimer(d)} }

func (Real) NewTicker(d time.Duration) Ticker { return realTicker{t: time.NewTicker(d)} }

func (Real) AfterFunc(d time.Duration, fn func()) Timer {
	return realTimer{t: time.AfterFunc(d, fn)}
}

type realTimer struct{ t *time.Timer }

func (r realTimer) C() <-chan time.Time        { return r.t.C }
func (r realTimer) Stop() bool                 { return r.t.Stop() }
func (r realTimer) Reset(d time.Duration) bool { return r.t.Reset(d) }

type realTicker struct{ t *time.Ticker }

func (r realTicker) C() <-chan time.Time { return r.t.C }
func (r realTicker) Stop()               { r.t.Stop() }

// Every runs fn every d on clk (nil: the real clock) until stop is
// called: a chain of AfterFunc timers in which each tick runs fn and then
// re-arms, so ticks never overlap, no goroutine exists between them, and
// on a Virtual clock they run on the advancing goroutine. No tick starts
// after stop returns; one already running finishes fn and does not
// re-arm. stop may be called more than once.
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
