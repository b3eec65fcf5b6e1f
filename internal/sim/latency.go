package sim

import (
	"math/rand"

	"dagmutex/internal/mutex"
)

// LatencyModel decides the transit delay of one message from -> to. A
// random model draws from a stream it was given at construction (see
// Stream), so the network holds no randomness of its own.
type LatencyModel func(from, to mutex.ID) Time

// Unit returns a model with a fixed delay of d ticks for every message.
// Experiments use Unit(Hop) so that delays measured in virtual time divide
// evenly into message hops.
func Unit(d Time) LatencyModel {
	return func(_, _ mutex.ID) Time { return d }
}

// UniformLatency returns a model drawing delays uniformly from [min, max]
// out of rng, one draw per message (none when min == max).
func UniformLatency(rng *rand.Rand, min, max Time) LatencyModel {
	if max < min {
		min, max = max, min
	}
	return func(_, _ mutex.ID) Time {
		if max == min {
			return min
		}
		return min + Time(rng.Int63n(int64(max-min+1)))
	}
}
