package distsim

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/hashing"
	"repro/internal/sketch"
	"repro/internal/sketch/ams"
	"repro/internal/sketch/bjkst"
	"repro/internal/sketch/fm"
	"repro/internal/sketch/kmv"
	"repro/internal/sketch/ll"
	"repro/internal/stream"
)

// kindSite runs any registered sketch kind as a site: it observes the
// site's stream and serializes the sketch into a self-describing
// envelope as the end-of-stream message — the same bytes the
// networked path (internal/client → internal/server) carries.
type kindSite struct {
	sk sketch.Sketch
	// w is non-nil when sk supports weighted processing; the interface
	// assertion is done once at construction, not per item.
	w sketch.Weighted
}

func newKindSite(sk sketch.Sketch) *kindSite {
	w, _ := sk.(sketch.Weighted)
	return &kindSite{sk: sk, w: w}
}

// Process implements SiteSketch.
func (s *kindSite) Process(it stream.Item) {
	if s.w != nil {
		s.w.ProcessWeighted(it.Label, it.Value)
		return
	}
	s.sk.Process(it.Label)
}

// Message implements SiteSketch: the sketch's registry envelope.
func (s *kindSite) Message() ([]byte, error) { return sketch.Envelope(s.sk) }

// kindCoord is the referee for envelope messages of any kind: it
// opens each message through the registry and merges. A corrupt
// envelope, an unregistered kind, or a configuration mismatch all
// surface as absorb errors.
type kindCoord struct {
	acc sketch.Sketch
}

func (c *kindCoord) Absorb(msg []byte) error {
	sk, err := sketch.Open(msg)
	if err != nil {
		return err
	}
	if c.acc == nil {
		c.acc = sk
		return nil
	}
	return c.acc.Merge(sk)
}

func (c *kindCoord) EstimateDistinct() float64 {
	if c.acc == nil {
		return 0
	}
	return c.acc.Estimate()
}

// EstimateSum implements Coordinator: NaN for kinds that cannot
// answer duplicate-insensitive sums.
func (c *kindCoord) EstimateSum() float64 {
	if c.acc == nil {
		return 0
	}
	if sum, ok := c.acc.(sketch.Summer); ok {
		return sum.EstimateSum()
	}
	return math.NaN()
}

// kindProtocol adapts a sketch-kind constructor into a Protocol using
// kindSite and kindCoord.
type kindProtocol struct {
	name string
	mk   func(site int) sketch.Sketch
}

// Name implements Protocol.
func (p *kindProtocol) Name() string { return p.name }

// NewSite implements Protocol.
func (p *kindProtocol) NewSite(site int) SiteSketch { return newKindSite(p.mk(site)) }

// NewCoordinator implements Protocol.
func (p *kindProtocol) NewCoordinator() Coordinator { return &kindCoord{} }

// GT is the paper's protocol: every site runs a coordinated
// core.Estimator (shared master seed), sends its serialized sketch,
// and the coordinator merges copy-by-copy.
type GT struct {
	Config core.EstimatorConfig
}

// Name implements Protocol.
func (g GT) Name() string { return "gt-coordinated" }

// NewSite implements Protocol. Every site uses the identical
// configuration — the coordination requirement.
func (g GT) NewSite(int) SiteSketch { return newKindSite(core.NewEstimator(g.Config)) }

// NewCoordinator implements Protocol.
func (g GT) NewCoordinator() Coordinator { return &kindCoord{} }

// Uncoordinated is the strawman E3 contrasts with GT: each site runs
// the same sampler but with an *independent* seed, so sketches cannot
// be merged; each site sends only its local estimate and the
// coordinator adds them up. On overlapping streams the sum overcounts
// by exactly the duplication factor — the failure mode coordinated
// sampling exists to fix.
type Uncoordinated struct {
	Config core.EstimatorConfig
}

// Name implements Protocol.
func (u Uncoordinated) Name() string { return "uncoordinated-sum" }

// NewSite implements Protocol: site i derives its own private seed.
func (u Uncoordinated) NewSite(site int) SiteSketch {
	cfg := u.Config
	cfg.Seed = hashing.Mix64(cfg.Seed + 0x1000*uint64(site) + 1)
	return &uncoordSite{est: core.NewEstimator(cfg)}
}

// NewCoordinator implements Protocol.
func (u Uncoordinated) NewCoordinator() Coordinator { return &sumCoord{} }

type uncoordSite struct {
	est *core.Estimator
}

func (s *uncoordSite) Process(it stream.Item) { s.est.ProcessWeighted(it.Label, it.Value) }
func (s *uncoordSite) Message() ([]byte, error) {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], math.Float64bits(s.est.EstimateDistinct()))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(s.est.EstimateSum()))
	return b[:], nil
}

type sumCoord struct {
	distinct, sum float64
}

func (c *sumCoord) Absorb(msg []byte) error {
	if len(msg) != 16 {
		return fmt.Errorf("uncoordinated: message length %d, want 16", len(msg))
	}
	c.distinct += math.Float64frombits(binary.LittleEndian.Uint64(msg[:8]))
	c.sum += math.Float64frombits(binary.LittleEndian.Uint64(msg[8:]))
	return nil
}

func (c *sumCoord) EstimateDistinct() float64 { return c.distinct }
func (c *sumCoord) EstimateSum() float64      { return c.sum }

// Exact is the communication baseline: each site ships its entire
// distinct label/value set and the coordinator unions exactly.
// Accuracy is perfect; E6 measures what that costs in bytes.
type Exact struct{}

// Name implements Protocol.
func (Exact) Name() string { return "exact-dedup" }

// NewSite implements Protocol.
func (Exact) NewSite(int) SiteSketch { return newKindSite(exact.NewDistinct()) }

// NewCoordinator implements Protocol.
func (Exact) NewCoordinator() Coordinator { return &kindCoord{} }

// NewFM returns the FM/PCSA baseline protocol (strong hashing).
func NewFM(numMaps int, seed uint64) Protocol {
	return &kindProtocol{
		name: "fm-pcsa",
		mk:   func(int) sketch.Sketch { return fm.New(numMaps, seed) },
	}
}

// NewAMS returns the AMS baseline protocol.
func NewAMS(copies int, seed uint64) Protocol {
	return &kindProtocol{
		name: "ams",
		mk:   func(int) sketch.Sketch { return ams.New(copies, seed) },
	}
}

// NewKMV returns the KMV/bottom-k baseline protocol.
func NewKMV(k int, seed uint64) Protocol {
	return &kindProtocol{
		name: "kmv",
		mk:   func(int) sketch.Sketch { return kmv.New(k, seed) },
	}
}

// NewBJKST returns the BJKST baseline protocol.
func NewBJKST(capacity int, seed uint64) Protocol {
	return &kindProtocol{
		name: "bjkst",
		mk:   func(int) sketch.Sketch { return bjkst.New(capacity, seed) },
	}
}

// NewLogLog returns the HLL-style baseline protocol (strong hashing).
func NewLogLog(numRegs int, seed uint64) Protocol {
	return &kindProtocol{
		name: "hll",
		mk:   func(int) sketch.Sketch { return ll.New(numRegs, seed) },
	}
}
