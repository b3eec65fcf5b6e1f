package sim

import (
	"hash/fnv"
	"math/rand"
	randv2 "math/rand/v2"
)

// Stream returns consumer's random stream for a run seeded with seed: a
// function of the pair alone. A run gives each of its random consumers
// (topology, link delays, think times, verdict jitter…) its own stream,
// so a consumer's draws never move another's sequence, and a new
// consumer is a new name, not a place in a shared draw order.
//
// The stream is a PCG (math/rand/v2) behind a math/rand Source, so it
// fits every *rand.Rand parameter while holding 16 bytes of state, where
// a math/rand source holds about 5 KB.
func Stream(seed int64, consumer string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(consumer))
	src := &pcgSource{key: h.Sum64()}
	src.Seed(seed)
	return rand.New(src)
}

// pcgSource is a PCG as a math/rand Source64, keyed by its consumer's
// name.
type pcgSource struct {
	pcg randv2.PCG
	key uint64 // FNV-1a of the consumer's name
}

// Seed restarts the stream at (seed, its consumer). The PCG's two state
// words are mixed from both, so nearby seeds (1, 2, 3…) and names that
// hash alike still start far apart.
func (s *pcgSource) Seed(seed int64) {
	s.pcg.Seed(mix(uint64(seed)), mix(s.key^uint64(seed)))
}

func (s *pcgSource) Uint64() uint64 { return s.pcg.Uint64() }
func (s *pcgSource) Int63() int64   { return int64(s.pcg.Uint64() >> 1) }

// mix is SplitMix64's finalizer, a bijection on 64 bits.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
