package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/hashing"
	"repro/internal/sketch"
)

// EstimatorConfig parameterizes an Estimator: Copies independent
// Samplers whose per-copy configs are derived deterministically from
// one master seed. As with Sampler, distributed parties coordinate by
// agreeing on this one struct.
type EstimatorConfig struct {
	// Capacity per copy; see Config.Capacity.
	Capacity int
	// Copies is the number of independent samplers, r = Θ(log 1/δ);
	// the estimate is the median across copies. Use CopiesForDelta.
	// Must be ≥ 1; odd values make the median unique.
	Copies int
	// Seed is the master seed; copy i uses the i-th value of a
	// SplitMix64 stream seeded with it.
	Seed uint64
	// Family selects the hash family for every copy.
	Family FamilyKind
	// Raise is every copy's declared overflow policy; see RaisePolicy.
	Raise RaisePolicy
}

// ConfigForAccuracy builds an EstimatorConfig achieving relative error
// eps with failure probability delta, per the paper's
// O(log(1/δ)/ε² · log m) space bound.
func ConfigForAccuracy(eps, delta float64, seed uint64) EstimatorConfig {
	return EstimatorConfig{
		Capacity: CapacityForEpsilon(eps),
		Copies:   CopiesForDelta(delta),
		Seed:     seed,
	}
}

// Estimator is the full (ε, δ) coordinated-sampling estimator: r
// independent Sampler copies processed in parallel over the same
// stream, with median aggregation of the copies' estimates. It is the
// type parties exchange in the distributed-streams model.
type Estimator struct {
	cfg    EstimatorConfig
	copies []Sampler // every copy's table is carved from one slab
}

// NewEstimator constructs an estimator. It panics on a non-positive
// Copies or Capacity (programming errors).
func NewEstimator(cfg EstimatorConfig) *Estimator {
	if cfg.Copies < 1 {
		panic(fmt.Sprintf("core: estimator needs >= 1 copy, got %d", cfg.Copies))
	}
	checkConfig(Config{Capacity: cfg.Capacity, Family: cfg.Family})
	sm := hashing.NewSplitMix64(cfg.Seed)
	e := &Estimator{cfg: cfg, copies: make([]Sampler, cfg.Copies)}
	size := tableSize(cfg.Capacity+1) / bucketSlots
	slab := make([]bucket, size*cfg.Copies)
	for i := range e.copies {
		c := Config{Capacity: cfg.Capacity, Seed: sm.Next(), Family: cfg.Family, Raise: cfg.Raise}
		e.copies[i].init(c, 0, slab[i*size:(i+1)*size:(i+1)*size])
	}
	return e
}

// Config returns the estimator's configuration.
func (e *Estimator) Config() EstimatorConfig { return e.cfg }

// Copies returns the number of independent sampler copies.
func (e *Estimator) Copies() int { return len(e.copies) }

// Process observes one occurrence of label in every copy.
func (e *Estimator) Process(label uint64) {
	for i := range e.copies {
		e.copies[i].Process(label)
	}
}

// ProcessWeighted observes label with a value in every copy; see
// Sampler.ProcessWeighted for the fixed-value-per-label contract.
func (e *Estimator) ProcessWeighted(label, value uint64) {
	for i := range e.copies {
		e.copies[i].ProcessWeighted(label, value)
	}
}

// Merge folds other into e copy-by-copy. other must be another
// *Estimator with an identical EstimatorConfig (ErrMismatch
// otherwise). Afterwards e estimates over the union of the two
// streams.
func (e *Estimator) Merge(o sketch.Sketch) error {
	other, ok := o.(*Estimator)
	if !ok {
		return fmt.Errorf("%w: cannot merge %T into *core.Estimator", ErrMismatch, o)
	}
	if other == nil {
		return fmt.Errorf("%w: nil estimator", ErrMismatch)
	}
	if e.cfg != other.cfg {
		return fmt.Errorf("%w: estimator configs %+v vs %+v", ErrMismatch, e.cfg, other.cfg)
	}
	// Validate every pair first so a failed merge cannot leave e
	// half-updated.
	for i := range e.copies {
		if e.copies[i].cfg.Seed != other.copies[i].cfg.Seed {
			return fmt.Errorf("%w: copy %d seed divergence", ErrMismatch, i)
		}
	}
	for i := range e.copies {
		if err := e.copies[i].Merge(&other.copies[i]); err != nil {
			return err
		}
	}
	return nil
}

// EstimateDistinct returns the median across copies of the
// distinct-label estimates.
func (e *Estimator) EstimateDistinct() float64 {
	return e.median(func(s *Sampler) float64 { return s.EstimateDistinct() })
}

// EstimateSum returns the median across copies of the
// sum-over-distinct-labels estimates.
func (e *Estimator) EstimateSum() float64 {
	return e.median(func(s *Sampler) float64 { return s.EstimateSum() })
}

// EstimateCountWhere returns the median across copies of the
// predicate-count estimates.
func (e *Estimator) EstimateCountWhere(pred func(label uint64) bool) float64 {
	return e.median(func(s *Sampler) float64 { return s.EstimateCountWhere(pred) })
}

// EstimateSumWhere returns the median across copies of the
// predicate-sum estimates.
func (e *Estimator) EstimateSumWhere(pred func(label uint64) bool) float64 {
	return e.median(func(s *Sampler) float64 { return s.EstimateSumWhere(pred) })
}

// medianStack is the copy count up to which a median is taken in a
// stack buffer; the registry's copy counts are far below it.
const medianStack = 64

func (e *Estimator) median(f func(*Sampler) float64) float64 {
	var buf [medianStack]float64
	vals := buf[:0]
	for i := range e.copies {
		vals = append(vals, f(&e.copies[i]))
	}
	return medianInPlace(vals)
}

// Reset clears all copies, keeping the configuration.
func (e *Estimator) Reset() {
	for i := range e.copies {
		e.copies[i].Reset()
	}
}

// Clone returns a deep copy: the copies and one slab holding all
// their tables.
func (e *Estimator) Clone() *Estimator {
	c := &Estimator{cfg: e.cfg, copies: slices.Clone(e.copies)}
	total := 0
	for i := range e.copies {
		total += len(e.copies[i].table)
	}
	slab := make([]bucket, total)
	for i := range c.copies {
		n := copy(slab, e.copies[i].table)
		c.copies[i].table, slab = slab[:n:n], slab[n:]
	}
	return c
}

// estimatorFixedLen is the length of an estimator encoding's magic,
// version and master seed.
const estimatorFixedLen = 11

// MarshalBinary encodes the estimator: a small header followed by each
// copy's encoding, length-prefixed. Every copy's entries are sorted in
// one scratch slice, so the encoding's exact length is known before
// its one allocation.
func (e *Estimator) MarshalBinary() ([]byte, error) {
	total := 0
	for i := range e.copies {
		total += e.copies[i].n
	}
	scratch := make([]uint64, 2*total)
	labels, weights := scratch[:total], scratch[total:]
	size := estimatorFixedLen + uvarintLen(uint64(len(e.copies)))
	for i, o := 0, 0; i < len(e.copies); i++ {
		c := &e.copies[i]
		l, w := labels[o:o+c.n], weights[o:o+c.n]
		c.sortEntries(l, w)
		n := c.encodedLen(l, w)
		size += uvarintLen(uint64(n)) + n
		o += c.n
	}
	b := make([]byte, 0, size)
	b = append(b, wireMagic0, wireMagic1, wireVersion)
	b = binary.LittleEndian.AppendUint64(b, e.cfg.Seed)
	b = binary.AppendUvarint(b, uint64(len(e.copies)))
	for i, o := 0, 0; i < len(e.copies); i++ {
		c := &e.copies[i]
		l, w := labels[o:o+c.n], weights[o:o+c.n]
		b = binary.AppendUvarint(b, uint64(c.encodedLen(l, w)))
		b = c.appendEncoding(b, l, w)
		o += c.n
	}
	return b, nil
}

// estimatorHeader is an estimator encoding whose header and copy
// headers have been validated (parseEstimator): its configuration, the
// bytes holding its length-prefixed copies for a second walk, and the
// sizes a decode and a stage allocate from.
type estimatorHeader struct {
	cfg    EstimatorConfig
	copies decoder
	// slots is Σ decodedSize over the copies, a decoded estimator's
	// table slab; entries is Σ count, a staged run's.
	slots   int
	entries int
}

// parseEstimator validates an estimator encoding's header and every
// copy's header. Every copy must carry the estimator's capacity,
// family and raise policy, and copy i the i-th SplitMix64 value of the
// master seed as its seed: the config digest covers only the master
// fields, so a copy that diverged would open cleanly and then refuse
// every coordinated merge. It is the first of two passes over the
// copies; UnmarshalBinary and stageRun make the second, which scans
// the entries.
func parseEstimator(data []byte) (estimatorHeader, error) {
	var h estimatorHeader
	if len(data) < estimatorFixedLen+1 || data[0] != wireMagic0 || data[1] != wireMagic1 {
		return h, fmt.Errorf("%w: bad estimator header", ErrCorrupt)
	}
	if data[2] != wireVersion {
		return h, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, data[2])
	}
	seed := binary.LittleEndian.Uint64(data[3:estimatorFixedLen])
	d := decoder{buf: data[estimatorFixedLen:]}
	n, err := d.uvarint("copy count")
	if err != nil {
		return h, err
	}
	if n == 0 || n > 1<<16 {
		return h, fmt.Errorf("%w: implausible copy count %d", ErrCorrupt, n)
	}
	h.copies = d
	var first samplerHeader
	sm := hashing.NewSplitMix64(seed)
	for i := 0; i < int(n); i++ {
		ch, _, err := d.nextCopy(i)
		if err != nil {
			return h, err
		}
		if i == 0 {
			first = ch
		}
		c := ch.cfg
		if c.Capacity != first.cfg.Capacity || c.Family != first.cfg.Family || c.Raise != first.cfg.Raise {
			return h, fmt.Errorf("%w: copy %d config diverges", ErrCorrupt, i)
		}
		if c.Seed != sm.Next() {
			return h, fmt.Errorf("%w: copy %d seed is not derived from the master seed", ErrCorrupt, i)
		}
		h.slots += decodedSize(ch)
		h.entries += ch.count
	}
	if len(d.buf) != 0 {
		return h, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf))
	}
	h.cfg = EstimatorConfig{
		Capacity: first.cfg.Capacity,
		Copies:   int(n),
		Seed:     seed,
		Family:   first.cfg.Family,
		Raise:    first.cfg.Raise,
	}
	return h, nil
}

// UnmarshalBinary decodes an estimator encoded by MarshalBinary: one
// slab holds every copy's table, and each copy's entries are placed as
// they are scanned.
func (e *Estimator) UnmarshalBinary(data []byte) error {
	h, err := parseEstimator(data)
	if err != nil {
		return err
	}
	copies := make([]Sampler, h.cfg.Copies)
	slab := newTable(h.slots)
	for i := range copies {
		ch, entries, _ := h.copies.nextCopy(i) // parseEstimator parsed these bytes without error
		size := decodedSize(ch) / bucketSlots
		copies[i].init(ch.cfg, ch.level, slab[:size:size])
		slab = slab[size:]
		if err := copies[i].scanEntries(entries, ch.count, nil); err != nil {
			return fmt.Errorf("copy %d: %w", i, err)
		}
	}
	*e = Estimator{cfg: h.cfg, copies: copies}
	return nil
}

// nextCopy reads the next length-prefixed copy encoding and parses
// its header.
func (d *decoder) nextCopy(i int) (samplerHeader, []byte, error) {
	sz, err := d.uvarint("copy length")
	if err != nil {
		return samplerHeader{}, nil, err
	}
	if uint64(len(d.buf)) < sz {
		return samplerHeader{}, nil, fmt.Errorf("%w: truncated copy %d", ErrCorrupt, i)
	}
	enc := d.buf[:sz]
	d.buf = d.buf[sz:]
	h, entries, err := parseHeader(enc)
	if err != nil {
		return h, nil, fmt.Errorf("copy %d: %w", i, err)
	}
	return h, entries, nil
}

// SizeBytes returns the estimator's wire-encoding length: the total
// communication a party sends in the one-shot model.
func (e *Estimator) SizeBytes() int {
	b, err := e.MarshalBinary()
	if err != nil {
		return 0
	}
	return len(b)
}

// Median returns the median of vals (the mean of the two central
// values for even lengths). It returns 0 for an empty slice and does
// not modify its argument.
func Median(vals []float64) float64 {
	return medianInPlace(slices.Clone(vals))
}

// medianInPlace is Median, sorting vals in place.
func medianInPlace(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	slices.Sort(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}
