package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dagmutex/internal/mutex"
)

func TestUnitLatency(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := Unit(7)
	for i := 0; i < 10; i++ {
		if d := u(1, 2, rng); d != 7 {
			t.Fatalf("Unit delay = %d, want 7", d)
		}
	}
}

func TestUniformLatencyStaysInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	u := UniformLatency(5, 15)
	f := func(_ uint8) bool {
		d := u(1, 2, rng)
		return d >= 5 && d <= 15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformLatencySwapsReversedBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	u := UniformLatency(20, 10) // reversed on purpose
	for i := 0; i < 100; i++ {
		d := u(1, 2, rng)
		if d < 10 || d > 20 {
			t.Fatalf("delay %d outside [10,20]", d)
		}
	}
}

func TestUniformLatencyDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	u := UniformLatency(9, 9)
	if d := u(1, 2, rng); d != 9 {
		t.Fatalf("degenerate uniform = %d", d)
	}
}

func TestExponentialLatencyPositiveAndNearMean(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := ExponentialLatency(100)
	var sum Time
	const n = 5000
	for i := 0; i < n; i++ {
		d := e(1, 2, rng)
		if d < 1 {
			t.Fatalf("exponential delay %d below the 1-tick floor", d)
		}
		sum += d
	}
	mean := float64(sum) / n
	if mean < 80 || mean > 120 {
		t.Fatalf("empirical mean %.1f far from 100", mean)
	}
}

func TestPerLinkOverrides(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	base := Unit(10)
	lat := PerLink(base, map[[2]mutex.ID]Time{{1, 2}: 99})
	if d := lat(1, 2, rng); d != 99 {
		t.Fatalf("override delay = %d, want 99", d)
	}
	if d := lat(2, 1, rng); d != 10 {
		t.Fatalf("reverse direction delay = %d, want base 10", d)
	}
	if d := lat(1, 3, rng); d != 10 {
		t.Fatalf("other link delay = %d, want base 10", d)
	}
}

func TestPerLinkCopiesOverrideMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	overrides := map[[2]mutex.ID]Time{{1, 2}: 50}
	lat := PerLink(Unit(1), overrides)
	overrides[[2]mutex.ID{1, 2}] = 999 // mutate the caller's map
	if d := lat(1, 2, rng); d != 50 {
		t.Fatalf("PerLink shared the caller's map: delay = %d", d)
	}
}
