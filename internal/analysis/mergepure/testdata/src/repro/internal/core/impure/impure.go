// Package impure puts each nondeterminism source on a root: a clock,
// randomness through a helper, an unannotated goroutine fan-out, and
// an unionlint:allow annotation with no reason.
package impure

import (
	"math/rand"
	"time"
)

type S struct {
	entries map[uint64]uint64
	stamp   int64
}

func (s *S) Merge(other *S) error {
	s.stamp = time.Now().UnixNano() // want "Merge must be deterministic \\(merge/estimate contract\\) but calls time.Now"
	for k, v := range other.entries {
		s.entries[k] = v
	}
	return nil
}

// helper is not a root, so it is not reported itself — but roots that
// call it are.
func helper() uint64 {
	return rand.Uint64()
}

func (s *S) Estimate() float64 {
	return float64(helper()) // want "Estimate must be deterministic \\(merge/estimate contract\\) but calls helper, which uses math/rand"
}

func (s *S) Process(label uint64) {
	done := make(chan struct{})
	go func() { // want "Process must be deterministic \\(merge/estimate contract\\) but starts goroutines"
		s.entries[label]++
		close(done)
	}()
	<-done
}

// ProcessBatch is parallel on purpose, but the annotation below is
// missing its justification: it still suppresses, and is reported.
func (s *S) ProcessBatch(labels []uint64) {
	for _, l := range labels {
		/* unionlint:allow mergepure */ // want "needs a reason"
		go s.Process(l)
	}
}
