package sim

import (
	"math/rand"

	"dagmutex/internal/mutex"
)

// LatencyModel decides the transit delay of one message from -> to.
// Models may be stateful but must be reproducible from a seed: they draw
// from the *rand.Rand they are given (the network's), or from a seeded
// stream of their own when a run keeps all its randomness in one place.
type LatencyModel func(from, to mutex.ID, rng *rand.Rand) Time

// Unit returns a model with a fixed delay of d ticks for every message.
// Experiments use Unit(Hop) so that delays measured in virtual time divide
// evenly into message hops.
func Unit(d Time) LatencyModel {
	return func(_, _ mutex.ID, _ *rand.Rand) Time { return d }
}

// UniformLatency returns a model drawing delays uniformly from [min, max].
func UniformLatency(min, max Time) LatencyModel {
	if max < min {
		min, max = max, min
	}
	return func(_, _ mutex.ID, rng *rand.Rand) Time {
		if max == min {
			return min
		}
		return min + Time(rng.Int63n(int64(max-min+1)))
	}
}
