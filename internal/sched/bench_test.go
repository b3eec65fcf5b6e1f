package sched

import (
	"math/rand"
	"testing"
)

// The pending set of bench's sim_scale (1000 nodes, 400 requesters, 1 s
// mean think time, 5 ms hold, message delays uniform in 200 µs–2 ms), as
// counted at every pop of a run past its first 30 simulated seconds: 167
// events pending, 164 of them think times, 1.6 deliveries and 0.7 holds;
// 82% of the pops are deliveries, 9% think times and 9% holds. The
// requesters that wait for the token have nothing queued. Each of
// simPending events below cycles as one requester's do, one grant per
// cycle: a think time, simMsgs deliveries (sim_scale's messages per
// grant), then the hold.
const (
	simPending = 167
	simMsgs    = 9
	simCycle   = simMsgs + 2
)

// BenchmarkTimelineSimShape is one pop and one push per op on sim_scale's
// pending set (one tick = 1 ns).
func BenchmarkTimelineSimShape(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	think, deliver := make([]Time, 4096), make([]Time, 4096)
	for i := range think {
		think[i] = Time(rng.ExpFloat64() * 1e9)
		deliver[i] = Time(200e3 + rng.Int63n(1800e3))
	}
	var tl Timeline[uint32]
	var phase [simPending]uint8 // 0: thinking, 1…simMsgs: a delivery, then the hold
	for s := range uint32(simPending) {
		tl.Push(think[s], s)
	}
	k := 0
	step := func() {
		at, s := tl.Pop()
		phase[s] = (phase[s] + 1) % simCycle
		d := Time(5e6)
		switch p := phase[s]; {
		case p == 0:
			d = think[k%len(think)]
		case p <= simMsgs:
			d = deliver[k%len(deliver)]
		}
		tl.Push(at+d, s)
		k++
	}
	for range 100 * simPending * simCycle { // into the steady mix
		step()
	}
	for b.Loop() {
		step()
	}
}
