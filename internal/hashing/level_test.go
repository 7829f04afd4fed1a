package hashing

import (
	"math"
	"testing"
)

func TestGeometricLevelEdges(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, MaxLevel},
		{1, 60},
		{2, 59},
		{3, 59},
		{1 << 60, 0},
		{MersennePrime - 1, 0},
		{(1 << 60) - 1, 1},
	}
	for _, c := range cases {
		if got := GeometricLevel(c.v); got != c.want {
			t.Errorf("GeometricLevel(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestGeometricLevelDistribution checks Pr[level >= i] ≈ 2^-i for
// hashes of sequential keys under a pairwise function.
func TestGeometricLevelDistribution(t *testing.T) {
	h := NewPairwise(77)
	const n = 1 << 18
	counts := make([]int, 12)
	for x := uint64(0); x < n; x++ {
		lvl := GeometricLevel(h.Hash(x))
		for i := 0; i < len(counts) && i <= lvl; i++ {
			counts[i]++
		}
	}
	for i, c := range counts {
		want := float64(n) * math.Pow(2, -float64(i))
		sigma := math.Sqrt(want)
		if math.Abs(float64(c)-want) > 8*sigma+2 {
			t.Errorf("Pr[level>=%d]: count %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFraction(t *testing.T) {
	if got := Fraction(0); got != 0 {
		t.Errorf("Fraction(0) = %v, want 0", got)
	}
	if got := Fraction(MersennePrime - 1); got >= 1 {
		t.Errorf("Fraction(p-1) = %v, want < 1", got)
	}
	if got := Fraction(1 << 60); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Fraction(2^60) = %v, want ~0.5", got)
	}
}

// TestFractionLevelConsistency: level >= i iff fraction < 2^-i (up to
// the 1/p discretization at the boundary).
func TestFractionLevelConsistency(t *testing.T) {
	h := NewPairwise(13)
	for x := uint64(0); x < 10000; x++ {
		v := h.Hash(x)
		lvl := GeometricLevel(v)
		fr := Fraction(v)
		if fr >= math.Pow(2, -float64(lvl))*1.000001 {
			t.Fatalf("x=%d: level=%d but fraction=%v", x, lvl, fr)
		}
	}
}
