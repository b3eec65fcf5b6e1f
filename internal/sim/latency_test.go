package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
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
