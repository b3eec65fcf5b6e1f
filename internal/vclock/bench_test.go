package vclock

import (
	"math/rand"
	"testing"
	"time"
)

// BenchmarkVirtualArmFire is one Arm and one fire per op on the pending
// set of bench's sim_scale, as sched's BenchmarkTimelineSimShape counts
// it: 167 events, each cycling as one requester's do — a think time drawn
// exponential with a 1 s mean, 9 message deliveries uniform in
// 200 µs–2 ms, then a 5 ms hold — and each callback arming its own
// successor as simulator events do.
func BenchmarkVirtualArmFire(b *testing.B) {
	const pending, msgs = 167, 9
	rng := rand.New(rand.NewSource(1))
	think, deliver := make([]time.Duration, 4096), make([]time.Duration, 4096)
	for i := range think {
		think[i] = time.Duration(rng.ExpFloat64() * float64(time.Second))
		deliver[i] = 200*time.Microsecond + time.Duration(rng.Int63n(int64(1800*time.Microsecond)))
	}
	v := NewVirtual()
	k := 0
	for i := range pending {
		phase := 0 // 0: thinking, 1…msgs: a delivery, then the hold
		var fire func()
		fire = func() {
			phase = (phase + 1) % (msgs + 2)
			d := 5 * time.Millisecond
			switch {
			case phase == 0:
				d = think[k%len(think)]
			case phase <= msgs:
				d = deliver[k%len(deliver)]
			}
			k++
			v.Arm(d, fire)
		}
		v.Arm(think[i], fire)
	}
	v.Drain(100 * pending * (msgs + 2)) // into the steady mix
	b.ResetTimer()
	if fired, _ := v.Drain(uint64(b.N)); fired != uint64(b.N) {
		b.Fatalf("fired %d of %d", fired, b.N)
	}
}
