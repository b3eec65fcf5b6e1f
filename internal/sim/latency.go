package sim

import (
	"maps"
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

// ExponentialLatency returns a model drawing delays from an exponential
// distribution with the given mean, truncated below at 1 tick. It mimics
// queueing delay on a lightly loaded network.
func ExponentialLatency(mean Time) LatencyModel {
	return func(_, _ mutex.ID, rng *rand.Rand) Time {
		return max(1, Time(rng.ExpFloat64()*float64(mean)))
	}
}

// PerLink wraps a base model with per-link overrides, letting tests build
// adversarial timings (for example, making one path much slower).
func PerLink(base LatencyModel, overrides map[[2]mutex.ID]Time) LatencyModel {
	cp := maps.Clone(overrides)
	return func(from, to mutex.ID, rng *rand.Rand) Time {
		if d, ok := cp[[2]mutex.ID{from, to}]; ok {
			return d
		}
		return base(from, to, rng)
	}
}
