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

// bucketSlots is the number of slots in a bucket.
const bucketSlots = 16

// bucket holds bucketSlots consecutive slots of a Sampler's table, one
// array per field, so a slot costs 17 bytes with no padding.
type bucket struct {
	// lv[j] is ℓ(label[j])+1, cached so raises need no re-hashing; 0
	// marks an empty slot (label 0 is a legal label, so the label
	// cannot).
	lv     [bucketSlots]uint8
	label  [bucketSlots]uint64
	weight [bucketSlots]uint64 // the label's value (1 for plain distinct counting)
}

// entry is one retained label outside a table: a slot of a staged run
// (see stagedRun).
type entry struct {
	label  uint64
	weight uint64
	lv     uint8 // ℓ(label)+1, as in a table
}

// tableSize returns the table length, in slots, for n entries: the
// smallest whole number of buckets at least 4n/3 slots long, so a
// table holding n entries is at most three quarters full and always
// has an empty slot to end a probe.
func tableSize(n int) int {
	slots := (4*n + 2) / 3
	return max(bucketSlots, (slots+bucketSlots-1)/bucketSlots*bucketSlots)
}

// newTable returns an empty table of the given length in slots, a
// multiple of bucketSlots.
func newTable(slots int) []bucket {
	return make([]bucket, slots/bucketSlots)
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
	// table holds tableSize(k) slots for the k entries it was sized
	// for: Capacity+1 when built, at most that when decoded (see
	// decodedSize) or grown (see grow), and more only once the sampler
	// is parked over capacity.
	table []bucket
	// key is mixed into every home slot. Each table draws its own, as
	// each Go map draws its seed, so a crafted label set cannot pile
	// into one probe run, and a merge that walks another table in slot
	// order does not insert in this table's home order, which would
	// pack the entries it inserts before a raise into one stretch of
	// the table. Slot positions are never observable: AppendBinary
	// sorts, and every estimate is a count or an integer sum.
	key uint64
	n   int // occupied slots
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
	s.init(cfg, 0, newTable(tableSize(cfg.Capacity+1)))
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
// must be zeroed.
func (s *Sampler) init(cfg Config, level int, table []bucket) {
	*s = Sampler{cfg: cfg, level: level, table: table, key: maphash.Bytes(maphash.MakeSeed(), nil)}
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

// slots returns the table's length in slots.
func (s *Sampler) slots() int { return len(s.table) * bucketSlots }

// home returns label's preferred slot in a table of size slots: the
// high word of the label, mixed with the table's key, times the size.
func (s *Sampler) home(label uint64, size int) int {
	hi, _ := bits.Mul64(hashing.Mix64(label^s.key), uint64(size))
	return int(hi)
}

// at returns the bucket holding slot i and i's index in it.
func (s *Sampler) at(i int) (*bucket, int) {
	return &s.table[uint(i)/bucketSlots], int(uint(i) % bucketSlots)
}

// find returns the slot holding label, or the empty slot where it
// would go.
func (s *Sampler) find(label uint64) (int, bool) {
	size := s.slots()
	for i := s.home(label, size); ; {
		b, j := s.at(i)
		if b.lv[j] == 0 {
			return i, false
		}
		if b.label[j] == label {
			return i, true
		}
		if i++; i == size {
			i = 0
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
func (s *Sampler) place(label, weight uint64, lv uint8) {
	size := s.slots()
	i := s.home(label, size)
	b, j := s.at(i)
	for b.lv[j] != 0 {
		if i++; i == size {
			i = 0
		}
		b, j = s.at(i)
	}
	b.label[j], b.weight[j], b.lv[j] = label, weight, lv
}

// insert adds label unless it is already in the sample, and raises
// the level if the sample then overflows Capacity; lv is ℓ(label)+1.
// The table grows when it would pass three quarters full.
func (s *Sampler) insert(label, weight uint64, lv uint8) {
	i, ok := s.find(label)
	if ok {
		return
	}
	if 4*(s.n+1) > 3*s.slots() {
		s.grow()
		i, _ = s.find(label)
	}
	b, j := s.at(i)
	b.label[j], b.weight[j], b.lv[j] = label, weight, lv
	s.n++
	s.weightSum += weight
	if s.n > s.cfg.Capacity {
		s.raise()
	}
}

// grow moves the table to twice its length, or to the Capacity+1
// length when that is shorter and holds one more entry: between
// raises a sampler holds at most Capacity+1 entries, so a table stops
// growing at that length unless the sampler is parked over capacity.
func (s *Sampler) grow() {
	old := s.table
	size := min(2*s.slots(), tableSize(s.cfg.Capacity+1))
	if 4*(s.n+1) > 3*size {
		size = 2 * s.slots()
	}
	s.table = newTable(size)
	for k := range old {
		b := &old[k]
		for j, lv := range b.lv {
			if lv != 0 {
				s.place(b.label[j], b.weight[j], lv)
			}
		}
	}
}

// filter drops every entry below the current level in one walk of
// the table, leaving no tombstones. The walk starts just after an
// empty slot, so it meets each probe run from its start: it lifts
// every entry out of its slot and places each survivor again from its
// home. Every slot from that home to the survivor's old slot has
// already been walked, so the probe stops at or before the old slot,
// and every survivor is again reachable from its home.
func (s *Sampler) filter() {
	size := s.slots()
	start := 0
	for b, j := s.at(start); b.lv[j] != 0; b, j = s.at(start) {
		start++
	}
	for k := 1; k < size; k++ {
		i := start + k
		if i >= size {
			i -= size
		}
		b, j := s.at(i)
		lv := b.lv[j]
		if lv == 0 {
			continue
		}
		b.lv[j] = 0
		if int(lv) <= s.level {
			s.n--
			s.weightSum -= b.weight[j]
			continue
		}
		s.place(b.label[j], b.weight[j], lv)
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
	// A label below the sample's threshold is discarded unseen.
	s.add(label, value, uint8(s.levelOf(label))+1)
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
	for k := range s.table {
		for _, lv := range s.table[k].lv {
			hist[lv]++
		}
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
	s.raiseTo(other.level)
	for k := range other.table {
		b := &other.table[k]
		for j, lv := range b.lv {
			s.add(b.label[j], b.weight[j], lv)
		}
	}
	return nil
}

// raiseTo raises s to the level of a coordinated sample being merged
// in, filtering, if that level is above s's.
func (s *Sampler) raiseTo(level int) {
	if level > s.level {
		s.level = level
		s.filter()
	}
}

// add inserts a label whose cached level lv (ℓ+1) is above s's level
// and skips any other, an empty slot's lv 0 included. Process goes
// through it, and so does every entry a merge folds in after raiseTo;
// the union reached does not depend on the order of the calls.
func (s *Sampler) add(label, weight uint64, lv uint8) {
	if int(lv) > s.level {
		s.insert(label, weight, lv)
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
	for k := range s.table {
		b := &s.table[k]
		for j, lv := range b.lv {
			if lv != 0 && pred(b.label[j]) {
				n++
			}
		}
	}
	return float64(n) * pow2(s.level)
}

// EstimateSumWhere is EstimateCountWhere weighted by the labels'
// values.
func (s *Sampler) EstimateSumWhere(pred func(label uint64) bool) float64 {
	var sum uint64
	for k := range s.table {
		b := &s.table[k]
		for j, lv := range b.lv {
			if lv != 0 && pred(b.label[j]) {
				sum += b.weight[j]
			}
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
