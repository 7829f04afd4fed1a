package core

import (
	"fmt"
	"hash/maphash"
	"math/bits"

	"repro/internal/hashing"
)

// RaisePolicy names the overflow policy a Config declares. It is part
// of the configuration, the wire encoding and the config digest, but
// it no longer selects code: every sampler jumps straight to the
// smallest level at or above the current one whose surviving set fits
// in Capacity, which is also the state the one-step-at-a-time policy
// of the paper reaches.
type RaisePolicy uint8

const (
	// RaiseIncrement is the policy as described in the paper: raise the
	// level one step at a time, filtering after each step.
	RaiseIncrement RaisePolicy = iota
	// RaiseJump jumps directly to the smallest level that fits.
	RaiseJump
)

// String implements fmt.Stringer.
func (p RaisePolicy) String() string {
	switch p {
	case RaiseIncrement:
		return "increment"
	case RaiseJump:
		return "jump"
	default:
		return fmt.Sprintf("RaisePolicy(%d)", uint8(p))
	}
}

// Config parameterizes a Sampler. Two samplers can be merged iff their
// Seed, Capacity and Family match exactly; distributed parties must
// therefore agree on a Config before observing their streams — the
// only coordination the scheme requires.
type Config struct {
	// Capacity is the maximum number of distinct labels retained,
	// c = Θ(1/ε²). Use CapacityForEpsilon to derive it from a target
	// relative error. Must be ≥ 1.
	Capacity int
	// Seed determines the shared level hash function.
	Seed uint64
	// Family selects the hash family (default FamilyPairwise).
	Family FamilyKind
	// Raise is the declared overflow policy (default RaiseIncrement);
	// see RaisePolicy.
	Raise RaisePolicy
}

// entry is one slot of a Sampler's table.
type entry struct {
	label  uint64
	weight uint64 // the label's value (1 for plain distinct counting)
	// lv is ℓ(label)+1, cached so raises need no re-hashing; 0 marks
	// an empty slot (label 0 is a legal label, so the label cannot).
	lv int32
}

// minTable is the smallest table length.
const minTable = 8

// tableSize returns the table length for n entries: the smallest
// power of two at least 4n/3, so a table holding n entries is at most
// three quarters full.
func tableSize(n int) int {
	size := minTable
	for 3*size < 4*n {
		size <<= 1
	}
	return size
}

// slotKey randomizes slot positions per process, as Go's maps do, so
// a crafted label set cannot pile into one probe run. Slot positions
// are never observable: AppendBinary sorts, and every estimate is a
// count or an integer sum.
var slotKey = maphash.Bytes(maphash.MakeSeed(), nil)

// home returns label's preferred slot in a table of the given
// power-of-two length.
func home(label uint64, size int) int {
	return int(hashing.Mix64(label^slotKey) >> (bits.LeadingZeros64(uint64(size)) + 1))
}

// Sampler maintains a coordinated adaptive sample of the distinct
// labels in a stream, per Gibbons–Tirthapura. The zero value is not
// usable; construct with NewSampler.
//
// The sample lives in one flat open-addressing table with linear
// probing; see DESIGN.md "Sample representation".
//
// Samplers are not safe for concurrent use; in the distributed-streams
// model each party owns its sampler exclusively.
type Sampler struct {
	cfg Config
	// pairwise is the level hash when cfg.Family is FamilyPairwise; it
	// is called directly, so the per-entry loops make no interface call
	// and a decoded copy boxes no hash function. hash is the level hash
	// of every other family.
	pairwise hashing.Pairwise
	hash     hashing.Family
	level    int
	table    []entry // len is a power of two; see tableSize
	n        int     // occupied slots
	// weightSum caches Σ weights of retained entries so estimates are
	// O(1); it is maintained on every insert/discard.
	weightSum uint64
}

// NewSampler returns an empty sampler for the given configuration.
// It panics if cfg.Capacity < 1 or the family is unknown, since a
// mis-parameterized sketch is a programming error, not a runtime
// condition.
func NewSampler(cfg Config) *Sampler {
	checkConfig(cfg)
	s := &Sampler{}
	s.init(cfg, 0, make([]entry, tableSize(cfg.Capacity+1)))
	return s
}

func checkConfig(cfg Config) {
	if cfg.Capacity < 1 {
		panic(fmt.Sprintf("core: sampler capacity must be >= 1, got %d", cfg.Capacity))
	}
	if !cfg.Family.valid() {
		panic(fmt.Sprintf("core: unknown hash family %d", cfg.Family))
	}
}

// init makes s an empty sampler at the given level over table, which
// must be zeroed and a power of two long.
func (s *Sampler) init(cfg Config, level int, table []entry) {
	*s = Sampler{cfg: cfg, level: level, table: table}
	if cfg.Family == FamilyPairwise {
		s.pairwise = hashing.NewPairwise(cfg.Seed)
	} else {
		s.hash = cfg.Family.New(cfg.Seed)
	}
}

// levelOf returns ℓ(label) under the sampler's hash.
func (s *Sampler) levelOf(label uint64) int {
	switch s.cfg.Family {
	case FamilyPairwise:
		return hashing.GeometricLevel(s.pairwise.Hash(label))
	default:
		return hashing.GeometricLevel(s.hash.Hash(label))
	}
}

// find returns the slot holding label, or the empty slot where it
// would go.
func (s *Sampler) find(label uint64) (int, bool) {
	mask := len(s.table) - 1
	for i := home(label, len(s.table)); ; i = (i + 1) & mask {
		if s.table[i].lv == 0 {
			return i, false
		}
		if s.table[i].label == label {
			return i, true
		}
	}
}

// has reports whether label is in the sample.
func (s *Sampler) has(label uint64) bool {
	_, ok := s.find(label)
	return ok
}

// place stores a label the table does not hold in its slot; lv is
// ℓ(label)+1.
func (s *Sampler) place(label, weight uint64, lv int32) {
	mask := len(s.table) - 1
	i := home(label, len(s.table))
	for s.table[i].lv != 0 {
		i = (i + 1) & mask
	}
	e := &s.table[i]
	e.label, e.weight, e.lv = label, weight, lv
}

// insert adds label unless it is already in the sample, and reports
// whether it did; lv is ℓ(label)+1. The table doubles when it would
// pass three quarters full.
func (s *Sampler) insert(label, weight uint64, lv int32) bool {
	i, ok := s.find(label)
	if ok {
		return false
	}
	if 4*(s.n+1) > 3*len(s.table) {
		old := s.table
		// The table doubles at most log2(Capacity) times; Len stays ≤ Capacity+1 between raises.
		s.table = make([]entry, 2*len(old))
		for _, o := range old {
			if o.lv != 0 {
				s.place(o.label, o.weight, o.lv)
			}
		}
		i, _ = s.find(label)
	}
	e := &s.table[i]
	e.label, e.weight, e.lv = label, weight, lv
	s.n++
	s.weightSum += weight
	return true
}

// filter drops every entry below the current level in one walk of
// the table, leaving no tombstones. The walk starts just after an
// empty slot, so it meets each probe run from its start: it lifts
// every entry out of its slot and places each survivor again from its
// home. Every slot from that home to the survivor's old slot has
// already been walked, so the probe stops at or before the old slot,
// and every survivor is again reachable from its home.
func (s *Sampler) filter() {
	mask := len(s.table) - 1
	start := 0
	for s.table[start].lv != 0 {
		start++
	}
	for k := 1; k < len(s.table); k++ {
		i := (start + k) & mask
		e := s.table[i]
		if e.lv == 0 {
			continue
		}
		s.table[i] = entry{}
		if int(e.lv) <= s.level {
			s.n--
			s.weightSum -= e.weight
			continue
		}
		s.place(e.label, e.weight, e.lv)
	}
}

// Process observes one occurrence of label. Duplicate occurrences are
// free: the sampler's state is a function of the distinct label set
// only.
func (s *Sampler) Process(label uint64) {
	s.ProcessWeighted(label, 1)
}

// ProcessWeighted observes label carrying a value. The
// duplicate-insensitive model requires every occurrence of a label to
// carry the same value; ProcessWeighted keeps the first value it
// retains and ignores repeats, matching the paper's "each label has a
// fixed associated value" semantics.
func (s *Sampler) ProcessWeighted(label, value uint64) {
	lvl := s.levelOf(label)
	if lvl < s.level {
		return // below the sample's threshold: discarded unseen
	}
	if s.insert(label, value, int32(lvl)+1) && s.n > s.cfg.Capacity {
		s.raise()
	}
}

// raise jumps the level to the smallest one above the current level
// at which the sample fits in Capacity — one histogram pass — and
// drops the entries below it in place. If the sample still overflows
// at the maximum level (possible only under adversarial hash
// collisions far beyond the experiments' regimes), the sampler parks
// there and keeps the overflow rather than drop coordinated entries.
func (s *Sampler) raise() {
	// hist[lv] counts the entries with ℓ = lv-1 (hist[0] the empties).
	var hist [hashing.MaxLevel + 2]int
	for i := range s.table {
		hist[s.table[i].lv]++
	}
	suffix := 0
	target := hashing.MaxLevel
	for l := hashing.MaxLevel; l > s.level; l-- {
		suffix += hist[l+1]
		if suffix <= s.cfg.Capacity {
			target = l
		}
	}
	s.level = target
	s.filter()
}

// Merge folds other into s, after which s is a coordinated sample of
// the union of the two streams. It returns ErrMismatch if the two
// samplers do not share an identical (Seed, Capacity, Family)
// configuration — the coordination precondition of the paper.
// The raise policy may differ (it does not affect semantics).
//
// Merging inserts other's entries as Process would, raising on
// overflow, so it reaches exactly the state union processing reaches
// and, short of the parked state, never takes s past Capacity+1
// entries.
func (s *Sampler) Merge(other *Sampler) error {
	if other == nil {
		return fmt.Errorf("%w: nil sampler", ErrMismatch)
	}
	if s.cfg.Seed != other.cfg.Seed || s.cfg.Capacity != other.cfg.Capacity || s.cfg.Family != other.cfg.Family {
		return fmt.Errorf("%w: %+v vs %+v", ErrMismatch, s.describe(), other.describe())
	}
	s.mergeEntries(other.level, other.table)
	return nil
}

// mergeEntries folds a coordinated sample at level into s: it raises
// s to level and filters, then inserts the entries above s's level,
// raising on overflow. entries is another sampler's table or one copy
// of a staged run; the union reached does not depend on their order.
func (s *Sampler) mergeEntries(level int, entries []entry) {
	if level > s.level {
		s.level = level
		s.filter()
	}
	for _, e := range entries {
		// Skips empty slots (lv 0) and entries below s's level alike.
		if int(e.lv) <= s.level {
			continue
		}
		if s.insert(e.label, e.weight, e.lv) && s.n > s.cfg.Capacity {
			s.raise()
		}
	}
}

func (s *Sampler) describe() string {
	return fmt.Sprintf("{seed:%d cap:%d family:%s}", s.cfg.Seed, s.cfg.Capacity, s.cfg.Family)
}

// EstimateDistinct returns the estimate of the number of distinct
// labels observed: |sample| · 2^level.
func (s *Sampler) EstimateDistinct() float64 {
	return float64(s.n) * pow2(s.level)
}

// EstimateSum returns the estimate of the sum of values over distinct
// labels: (Σ sampled values) · 2^level. With values all 1 this equals
// EstimateDistinct.
func (s *Sampler) EstimateSum() float64 {
	return float64(s.weightSum) * pow2(s.level)
}

// EstimateCountWhere returns the estimate of the number of distinct
// labels satisfying pred, computed from the coordinated sample:
// |{x ∈ sample : pred(x)}| · 2^level. The relative error guarantee
// degrades with the predicate's selectivity (experiment E9), exactly
// as for any sample-based estimator.
func (s *Sampler) EstimateCountWhere(pred func(label uint64) bool) float64 {
	n := 0
	for _, e := range s.table {
		if e.lv != 0 && pred(e.label) {
			n++
		}
	}
	return float64(n) * pow2(s.level)
}

// EstimateSumWhere is EstimateCountWhere weighted by the labels'
// values.
func (s *Sampler) EstimateSumWhere(pred func(label uint64) bool) float64 {
	var sum uint64
	for _, e := range s.table {
		if e.lv != 0 && pred(e.label) {
			sum += e.weight
		}
	}
	return float64(sum) * pow2(s.level)
}

// Reset returns the sampler to its empty state, keeping its
// configuration (and hence its coordination seed).
func (s *Sampler) Reset() {
	s.level = 0
	s.n = 0
	s.weightSum = 0
	clear(s.table)
}

// pow2 returns 2^i as a float64 for 0 <= i <= MaxLevel.
func pow2(i int) float64 {
	return float64(uint64(1) << uint(i))
}
