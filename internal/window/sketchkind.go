package window

import (
	"fmt"
	"math"

	"repro/internal/sketch"
)

// Union adapts the timestamped window Sketch to the untimestamped
// sketch.Sketch contract, which is what registers the window
// extension as sketch.KindWindow. Process stamps each label with an
// internal logical clock (one tick per call), so a Union observed
// over a whole stream estimates that stream's distinct count like any
// other kind.
type Union struct {
	sk *Sketch
	// now is the logical clock; it never runs behind sk.LastTimestamp,
	// so Process's non-decreasing-timestamp contract always holds.
	now uint64
}

// NewUnion returns a Union over a fresh window sketch.
func NewUnion(cfg Config) *Union {
	return &Union{sk: New(cfg)}
}

func init() {
	sketch.Register(sketch.KindInfo{
		Kind:    sketch.KindWindow,
		Name:    "window",
		Version: 1,
		// Same Θ(1/ε²) capacity shape as the core sampler.
		New: func(eps float64, seed uint64) sketch.Sketch {
			if eps <= 0 || eps > 1 {
				panic("window: epsilon must be in (0, 1]")
			}
			c := int(12.0/(eps*eps) + 0.5)
			if c < 4 {
				c = 4
			}
			return NewUnion(Config{Capacity: c, Seed: seed})
		},
		Decode: func(payload []byte) (sketch.Sketch, error) {
			s, err := Decode(payload)
			if err != nil {
				return nil, err
			}
			return &Union{sk: s, now: s.LastTimestamp()}, nil
		},
	})
}

// Process implements sketch.Sketch, stamping label with the next
// logical-clock tick.
func (u *Union) Process(label uint64) {
	u.now++
	// Cannot fail: now is strictly increasing and never behind the
	// sketch's last timestamp.
	_ = u.sk.Process(label, u.now)
}

// Estimate implements sketch.Sketch: the distinct count since the
// beginning of the stream, or NaN when eviction has pushed the
// retained horizon past the stream start (a windowed sketch promises
// recency, not totality).
func (u *Union) Estimate() float64 {
	v, err := u.sk.EstimateDistinctSince(0)
	if err != nil {
		return math.NaN()
	}
	return v
}

// Merge implements sketch.Sketch.
func (u *Union) Merge(o sketch.Sketch) error {
	other, ok := o.(*Union)
	if !ok {
		return fmt.Errorf("%w: cannot merge %T into *window.Union", ErrMismatch, o)
	}
	if err := u.sk.Merge(other.sk); err != nil {
		return err
	}
	if u.now < u.sk.LastTimestamp() {
		u.now = u.sk.LastTimestamp()
	}
	if u.now < other.now {
		u.now = other.now
	}
	return nil
}

// MarshalBinary implements sketch.Sketch: the inner window encoding
// (the logical clock is recovered from the last timestamp on decode).
func (u *Union) MarshalBinary() ([]byte, error) { return u.sk.MarshalBinary() }

// Kind implements sketch.Sketch.
func (u *Union) Kind() sketch.Kind { return sketch.KindWindow }

// Seed implements sketch.Sketch.
func (u *Union) Seed() uint64 { return u.sk.cfg.Seed }

// Digest implements sketch.Sketch.
func (u *Union) Digest() uint64 {
	return sketch.ConfigDigest(sketch.KindWindow,
		uint64(u.sk.cfg.Capacity), u.sk.cfg.Seed, uint64(u.sk.cfg.MaxLevel))
}
