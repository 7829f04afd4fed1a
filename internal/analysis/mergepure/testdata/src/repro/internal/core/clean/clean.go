// Package clean holds every idiom mergepure must accept: counters,
// keyed writes, deletes, guarded extrema, sorted marshaling, unsorted
// non-root helpers, and parallel fan-outs whose goroutines carry an
// unionlint:allow mergepure annotation, in a root and in a helper.
package clean

import (
	"sort"
	"sync"
)

type S struct {
	entries map[uint64]uint64
	total   uint64
	max     uint64
}

// Merge folds other into s with order-independent operations only.
func (s *S) Merge(other *S) error {
	for k, v := range other.entries {
		if _, ok := s.entries[k]; ok {
			continue
		}
		s.entries[k] = v
		s.total += v
		if v > s.max {
			s.max = v
		}
	}
	for k, v := range s.entries {
		if v == 0 {
			delete(s.entries, k)
		}
	}
	return nil
}

// EstimateDistinct counts in map order, which cannot be observed.
func (s *S) EstimateDistinct() float64 {
	n := 0
	for range s.entries {
		n++
	}
	return float64(n)
}

// MarshalBinary builds from a sorted key list, so equal states encode
// to equal bytes.
func (s *S) MarshalBinary() ([]byte, error) {
	keys := make([]uint64, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]byte, 0, 8*len(keys))
	for _, k := range keys {
		out = append(out, byte(k))
	}
	return out, nil
}

// Sample returns the retained labels, unordered; it is not a root, so
// callers own the sort.
func (s *S) Sample() []uint64 {
	out := make([]uint64, 0, len(s.entries))
	for k := range s.entries {
		out = append(out, k)
	}
	return out
}

// ProcessSlice shards the batch across goroutines.
func (s *S) ProcessSlice(labels []uint64) {
	var wg sync.WaitGroup
	for range labels {
		wg.Add(1)
		// unionlint:allow mergepure each shard folds into a private S and merges by set union
		go func() { defer wg.Done() }()
	}
	wg.Wait()
}

// fanOut is not a root. Its goroutine is allowed, so it exports no
// Impure fact and ProcessAll, which calls it, is not reported either.
func (s *S) fanOut(labels []uint64) {
	var wg sync.WaitGroup
	for range labels {
		wg.Add(1)
		go func() { defer wg.Done() }() // unionlint:allow mergepure the shards join before fanOut returns
	}
	wg.Wait()
}

// ProcessAll folds through the allowed helper.
func (s *S) ProcessAll(labels []uint64) {
	s.fanOut(labels)
}
