// Package window extends the coordinated sampling scheme to sliding
// windows: estimating the number of distinct labels among the W most
// recent timestamps of one or more distributed streams. This is the
// extension the SPAA 2001 paper's model points to and its authors
// developed next ("Distributed streams algorithms for sliding
// windows", SPAA 2002); it is included as the repository's
// future-work reproduction.
//
// # Design
//
// The infinite-window sampler cannot support windows directly: once
// its level rises it can never fall, but in a sliding window old
// labels expire and the distinct count can shrink. The fix (following
// the 2002 paper's structure) is to maintain one bounded sample PER
// LEVEL ℓ ∈ {0..maxLevel}: the capacity most recently seen distinct
// labels whose hash level is at least ℓ, each with its latest
// timestamp. Level ℓ's sample is exactly the set of the most recent
// distinct level-≥ℓ labels, so it can answer any window query it
// "covers":
//
//   - if level ℓ has never evicted, it covers every window;
//   - otherwise it covers windows that start at or after the eviction
//     horizon (the latest timestamp it has dropped).
//
// A query for window W finds the smallest covering level ℓ and returns
// |{x in level-ℓ sample : ts(x) ≥ start}| · 2^ℓ — the same estimator as
// the infinite-window sampler, applied to the window-restricted
// coordinated sample. Space is O(levels · capacity), i.e. an extra
// log m factor over the infinite-window sketch, matching the 2002
// paper's bounds regime.
//
// Samples at the same seed are coordinated across streams, so
// per-stream sketches merge into a sketch of the union (taking the
// per-label latest timestamp and the stricter eviction horizon).
//
// Timestamps must be non-decreasing per stream (the standard
// synchronous-arrivals model); Process returns an error otherwise.
package window

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/hashing"
	"repro/internal/sketch"
)

// Errors returned by this package.
var (
	// ErrMismatch is returned when merging incompatible sketches.
	ErrMismatch = fmt.Errorf("window: cannot merge sketches with different configurations: %w", sketch.ErrMismatch)
	// ErrOutOfOrder is returned for a timestamp below a previous one.
	ErrOutOfOrder = errors.New("window: timestamps must be non-decreasing")
	// ErrUncovered is returned when a queried window reaches further
	// back than every level's sample can certify; callers can retry
	// with a smaller window or a larger capacity.
	ErrUncovered = errors.New("window: window too large for retained state")
)

// Config parameterizes a window Sketch.
type Config struct {
	// Capacity is the per-level sample size, c = Θ(1/ε²).
	Capacity int
	// Seed is the shared coordination seed.
	Seed uint64
	// MaxLevel bounds the retained levels (0 keeps the natural
	// hashing.MaxLevel, which is always safe; smaller values save
	// space when the distinct rate is known to be bounded).
	MaxLevel int
}

// entry is one retained (label, latest timestamp) pair within a level.
type entry struct {
	label uint64
	ts    uint64
	prev  int // doubly linked list by recency, -1 = none
	next  int
}

// levelSample is the bounded most-recent-distinct sample for one
// level: a map for dedup plus an intrusive LRU list ordered by latest
// timestamp. evictedTo is the eviction horizon — the largest timestamp
// ever evicted (0 when nothing has been evicted).
type levelSample struct {
	idx       map[uint64]int
	entries   []entry
	free      []int
	head      int // most recent
	tail      int // least recent
	evicted   bool
	evictedTo uint64
}

func newLevelSample(capacity int) *levelSample {
	return &levelSample{
		idx:  make(map[uint64]int, capacity+1),
		head: -1, tail: -1,
	}
}

// touch inserts or refreshes label at ts (ts ≥ all prior ts).
func (ls *levelSample) touch(label uint64, ts uint64, capacity int) {
	if i, ok := ls.idx[label]; ok {
		ls.unlink(i)
		ls.entries[i].ts = ts
		ls.linkFront(i)
		return
	}
	var i int
	if n := len(ls.free); n > 0 {
		i = ls.free[n-1]
		ls.free = ls.free[:n-1]
		ls.entries[i] = entry{label: label, ts: ts, prev: -1, next: -1}
	} else {
		i = len(ls.entries)
		// The entry slab grows to capacity once, then recycles via the free list.
		ls.entries = append(ls.entries, entry{label: label, ts: ts, prev: -1, next: -1})
	}
	ls.idx[label] = i
	ls.linkFront(i)
	if len(ls.idx) > capacity {
		ls.evictOldest()
	}
}

func (ls *levelSample) linkFront(i int) {
	ls.entries[i].prev = -1
	ls.entries[i].next = ls.head
	if ls.head >= 0 {
		ls.entries[ls.head].prev = i
	}
	ls.head = i
	if ls.tail < 0 {
		ls.tail = i
	}
}

func (ls *levelSample) unlink(i int) {
	e := ls.entries[i]
	if e.prev >= 0 {
		ls.entries[e.prev].next = e.next
	} else {
		ls.head = e.next
	}
	if e.next >= 0 {
		ls.entries[e.next].prev = e.prev
	} else {
		ls.tail = e.prev
	}
}

func (ls *levelSample) evictOldest() {
	i := ls.tail
	if i < 0 {
		return
	}
	e := ls.entries[i]
	ls.unlink(i)
	delete(ls.idx, e.label)
	// The free list never outgrows the entry slab it indexes.
	ls.free = append(ls.free, i)
	ls.evicted = true
	if e.ts > ls.evictedTo {
		ls.evictedTo = e.ts
	}
}

// covers reports whether this sample certifiably contains every
// distinct level-qualified label with timestamp ≥ start.
func (ls *levelSample) covers(start uint64) bool {
	return !ls.evicted || ls.evictedTo < start
}

// countSince returns the number of retained labels with ts ≥ start.
func (ls *levelSample) countSince(start uint64) int {
	n := 0
	for i := ls.head; i >= 0; i = ls.entries[i].next {
		if ls.entries[i].ts < start {
			break // list is ordered by recency
		}
		n++
	}
	return n
}

// Sketch estimates distinct counts over sliding windows of one or
// more coordinated streams. Construct with New; not safe for
// concurrent use.
type Sketch struct {
	cfg    Config
	hash   hashing.Pairwise
	levels []*levelSample
	lastTS uint64
	seen   bool
}

// New returns an empty window sketch. It panics if cfg.Capacity < 1
// or MaxLevel is negative or exceeds hashing.MaxLevel.
func New(cfg Config) *Sketch {
	if cfg.Capacity < 1 {
		panic(fmt.Sprintf("window: capacity must be >= 1, got %d", cfg.Capacity))
	}
	if cfg.MaxLevel == 0 {
		cfg.MaxLevel = hashing.MaxLevel
	}
	if cfg.MaxLevel < 0 || cfg.MaxLevel > hashing.MaxLevel {
		panic(fmt.Sprintf("window: MaxLevel %d out of range", cfg.MaxLevel))
	}
	s := &Sketch{
		cfg:    cfg,
		hash:   hashing.NewPairwise(cfg.Seed),
		levels: make([]*levelSample, cfg.MaxLevel+1),
	}
	for i := range s.levels {
		s.levels[i] = newLevelSample(cfg.Capacity)
	}
	return s
}

// Config returns the sketch's configuration.
func (s *Sketch) Config() Config { return s.cfg }

// Process observes label at timestamp ts. Timestamps must be
// non-decreasing within the stream.
func (s *Sketch) Process(label uint64, ts uint64) error {
	if s.seen && ts < s.lastTS {
		return fmt.Errorf("%w: %d after %d", ErrOutOfOrder, ts, s.lastTS)
	}
	s.lastTS = ts
	s.seen = true
	lvl := hashing.GeometricLevel(s.hash.Hash(label))
	if lvl > s.cfg.MaxLevel {
		lvl = s.cfg.MaxLevel
	}
	for i := 0; i <= lvl; i++ {
		s.levels[i].touch(label, ts, s.cfg.Capacity)
	}
	return nil
}

// LastTimestamp returns the latest timestamp observed (0 before any).
func (s *Sketch) LastTimestamp() uint64 { return s.lastTS }

// EstimateDistinctSince estimates the number of distinct labels with
// timestamp ≥ start, across everything merged into s. It returns
// ErrUncovered if no retained level can certify coverage of that far
// back a window.
func (s *Sketch) EstimateDistinctSince(start uint64) (float64, error) {
	for lvl, ls := range s.levels {
		if !ls.covers(start) {
			continue
		}
		return float64(ls.countSince(start)) * float64(uint64(1)<<uint(lvl)), nil
	}
	return 0, fmt.Errorf("%w: start=%d", ErrUncovered, start)
}

// EstimateDistinctWindow estimates the distinct count among the last
// width timestamp units, i.e. timestamps > LastTimestamp() - width.
func (s *Sketch) EstimateDistinctWindow(width uint64) (float64, error) {
	if !s.seen {
		return 0, nil
	}
	var start uint64
	if width <= s.lastTS {
		start = s.lastTS - width + 1
	}
	return s.EstimateDistinctSince(start)
}

// Merge folds other into s, producing a sketch of the union of the
// two streams: per-level union of samples (latest timestamp wins per
// label), trimmed to the most recent Capacity labels, with eviction
// horizons combined conservatively. Configurations must match.
func (s *Sketch) Merge(other *Sketch) error {
	if other == nil {
		return fmt.Errorf("%w: nil sketch", ErrMismatch)
	}
	if s.cfg != other.cfg {
		return fmt.Errorf("%w: %+v vs %+v", ErrMismatch, s.cfg, other.cfg)
	}
	for lvl := range s.levels {
		s.levels[lvl] = mergeLevel(s.levels[lvl], other.levels[lvl], s.cfg.Capacity)
	}
	if other.lastTS > s.lastTS {
		s.lastTS = other.lastTS
	}
	s.seen = s.seen || other.seen
	return nil
}

// mergeLevel merges two level samples into a fresh one.
func mergeLevel(a, b *levelSample, capacity int) *levelSample {
	// Collect the union with per-label max timestamp.
	union := make(map[uint64]uint64, len(a.idx)+len(b.idx))
	for label, i := range a.idx {
		union[label] = a.entries[i].ts
	}
	for label, i := range b.idx {
		if ts := b.entries[i].ts; ts > union[label] {
			union[label] = ts
		}
	}
	out := newLevelSample(capacity)
	out.evicted = a.evicted || b.evicted
	if a.evictedTo > out.evictedTo {
		out.evictedTo = a.evictedTo
	}
	if b.evictedTo > out.evictedTo {
		out.evictedTo = b.evictedTo
	}
	// Insert in increasing (timestamp, label) order so the recency
	// list is correct, trimming evicts the oldest first, and merge
	// results are deterministic.
	type pair struct {
		label, ts uint64
	}
	pairs := make([]pair, 0, len(union))
	for label, ts := range union {
		pairs = append(pairs, pair{label, ts})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].ts != pairs[j].ts {
			return pairs[i].ts < pairs[j].ts
		}
		return pairs[i].label < pairs[j].label
	})
	for _, p := range pairs {
		out.touch(p.label, p.ts, capacity)
	}
	return out
}

// MemoryEntries returns the total retained (label, timestamp) entries
// across levels — the sketch's space in units of entries.
func (s *Sketch) MemoryEntries() int {
	n := 0
	for _, ls := range s.levels {
		n += len(ls.idx)
	}
	return n
}
