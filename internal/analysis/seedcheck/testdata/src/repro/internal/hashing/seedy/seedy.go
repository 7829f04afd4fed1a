// Package seedy is a golden-test package on an in-scope import path
// (matches internal/hashing in seedcheck's default scope).
package seedy

import (
	"math/rand"
	"time"
)

// Bad hits every forbidden form.
func Bad() int {
	rand.Seed(42)                      // want "rand.Seed reseeds the process-global generator"
	n := rand.Intn(10)                 // want "rand.Intn draws from the global math/rand source"
	_ = rand.Float64()                 // want "rand.Float64 draws from the global math/rand source"
	rand.Shuffle(n, func(i, j int) {}) // want "rand.Shuffle draws from the global math/rand source"
	return n
}

// BadClockSeed uses the canonical clock-seeding idiom.
func BadClockSeed() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want "clock-derived randomness"
}

// Good derives everything from an explicit seed.
func Good(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10) // method on an explicit *rand.Rand: fine
}

// Jitter is a reviewed exception.
func Jitter() int64 {
	// unionlint:allow seedcheck retry jitter is deliberately per-process
	return time.Now().UnixNano()
}

// BareJitter's annotation has no reason: it still suppresses, and
// seedcheck reports it.
func BareJitter() int64 {
	/* unionlint:allow seedcheck */ // want "needs a reason"
	return time.Now().UnixNano()
}

// OtherBare's reason-less annotation names another analyzer, so only
// that analyzer reports it.
func OtherBare(a, b float64) bool {
	/* unionlint:allow floatcmp */
	return a == b
}

// NotTheClock proves only time.Now().UnixNano() is matched, not any
// UnixNano on any time value.
func NotTheClock(t time.Time) int64 {
	return t.UnixNano()
}
