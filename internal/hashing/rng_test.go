package hashing

import (
	"math"
	"testing"
)

func TestSplitMix64Deterministic(t *testing.T) {
	a := NewSplitMix64(42)
	b := NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if av, bv := a.Next(), b.Next(); av != bv {
			t.Fatalf("step %d: %d != %d", i, av, bv)
		}
	}
}

func TestSplitMix64KnownVector(t *testing.T) {
	// Reference values for seed 0 from the canonical C implementation.
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
	}
	s := NewSplitMix64(0)
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Errorf("value %d: got %#x, want %#x", i, got, w)
		}
	}
}

func TestMix64MatchesSplitMix(t *testing.T) {
	// Mix64(seed) must equal the first output of SplitMix64(seed).
	for _, seed := range []uint64{0, 1, 42, ^uint64(0)} {
		if got, want := Mix64(seed), NewSplitMix64(seed).Next(); got != want {
			t.Errorf("Mix64(%d) = %#x, want %#x", seed, got, want)
		}
	}
}

func TestXoshiroDeterministic(t *testing.T) {
	a := NewXoshiro256(7)
	b := NewXoshiro256(7)
	for i := 0; i < 100; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: %d != %d", i, av, bv)
		}
	}
}

func TestXoshiroSeedsDiffer(t *testing.T) {
	a := NewXoshiro256(1)
	b := NewXoshiro256(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("seeds 1 and 2 collided on %d/64 outputs", same)
	}
}

func TestXoshiroUint64nRange(t *testing.T) {
	r := NewXoshiro256(3)
	for _, n := range []uint64{1, 2, 3, 10, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestXoshiroUint64nUniform(t *testing.T) {
	r := NewXoshiro256(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from expected %.0f", i, c, want)
		}
	}
}

func TestXoshiroFloat64Range(t *testing.T) {
	r := NewXoshiro256(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean of Float64 = %v, want ~0.5", mean)
	}
}

func TestXoshiroPanicsOnZeroN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uint64n(0) did not panic")
		}
	}()
	NewXoshiro256(1).Uint64n(0)
}

func TestXoshiroIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(-1) did not panic")
		}
	}()
	NewXoshiro256(1).Intn(-1)
}
