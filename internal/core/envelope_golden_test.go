package core

// Cross-version encoding golden: hex Sampler.MarshalBinary and
// sketch.Envelope(Estimator) bytes for a fixed set of inputs. The
// encodings are a wire and WAL contract — a coordinator must accept
// and re-emit exactly the bytes an older build produced — so any
// change to the sample representation has to leave every entry here
// byte-identical, both when rebuilt from its inputs and when decoded
// and re-encoded.
//
// Regenerate with: go test ./internal/core -run EnvelopeGolden -update-golden

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hashing"
	"repro/internal/sketch"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

const envelopeGoldenPath = "testdata/gt_envelopes.golden"

// goldenEntry is one named encoding: either a bare sampler
// ("sampler/...") or a gt envelope ("envelope/...").
type goldenEntry struct {
	name string
	enc  []byte
}

func goldenLabels(seed uint64, n int, universe uint64) []uint64 {
	r := hashing.NewXoshiro256(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64n(universe)
	}
	return out
}

func goldenSampler(t *testing.T, name string, s *Sampler) goldenEntry {
	t.Helper()
	enc, err := s.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return goldenEntry{"sampler/" + name, enc}
}

func goldenEnvelope(t *testing.T, name string, s sketch.Sketch) goldenEntry {
	t.Helper()
	enc, err := sketch.Envelope(s)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return goldenEntry{"envelope/" + name, enc}
}

// buildGoldenEntries rebuilds every golden encoding from its inputs.
func buildGoldenEntries(t *testing.T) []goldenEntry {
	t.Helper()
	var out []goldenEntry

	// Every family under both raise values, at a capacity small enough
	// that the level rises several times.
	for _, fam := range []FamilyKind{FamilyPairwise, FamilyFourWise, FamilyTabulation} {
		for _, raise := range []RaisePolicy{0, 1} {
			name := fmt.Sprintf("%s-raise%d", fam, raise)
			s := NewSampler(Config{Capacity: 24, Seed: 11, Family: fam, Raise: raise})
			e := NewEstimator(EstimatorConfig{Capacity: 24, Copies: 3, Seed: 11, Family: fam, Raise: raise})
			for _, x := range goldenLabels(1, 600, 1<<20) {
				s.Process(x)
				e.Process(x)
			}
			out = append(out, goldenSampler(t, name, s), goldenEnvelope(t, name, e))
		}
	}

	// Weighted labels; the first value retained for a label wins.
	ws := NewSampler(Config{Capacity: 40, Seed: 12})
	we := NewEstimator(EstimatorConfig{Capacity: 40, Copies: 5, Seed: 12})
	r := hashing.NewXoshiro256(2)
	for i := 0; i < 1500; i++ {
		x, v := r.Uint64n(5000), 1+r.Uint64n(1<<20)
		ws.ProcessWeighted(x, v)
		we.ProcessWeighted(x, v)
	}
	out = append(out, goldenSampler(t, "weighted", ws), goldenEnvelope(t, "weighted", we))

	// A sample whose level has risen far above zero, including label 0.
	raised := NewSampler(Config{Capacity: 8, Seed: 13})
	for x := uint64(0); x < 50000; x++ {
		raised.Process(x)
	}
	if raised.level < 8 {
		t.Fatalf("raised sample sits at level %d, want a high level", raised.level)
	}
	out = append(out, goldenSampler(t, "raised", raised))

	// A merge of two coordinated estimators over overlapping streams.
	mcfg := EstimatorConfig{Capacity: 64, Copies: 5, Seed: 14}
	ma, mb := NewEstimator(mcfg), NewEstimator(mcfg)
	for _, x := range goldenLabels(3, 3000, 1<<16) {
		ma.Process(x)
	}
	for _, x := range goldenLabels(4, 3000, 1<<16) {
		mb.Process(x)
	}
	if err := ma.Merge(mb); err != nil {
		t.Fatalf("merge: %v", err)
	}
	out = append(out, goldenEnvelope(t, "merged", ma))

	// Sketch-valued intersection and difference of coordinated samples.
	scfg := Config{Capacity: 48, Seed: 15}
	sa, sb := NewSampler(scfg), NewSampler(scfg)
	ea, eb := NewEstimator(mcfg), NewEstimator(mcfg)
	for x := uint64(0); x < 4000; x++ {
		sa.Process(x)
		ea.Process(x)
	}
	for x := uint64(2500); x < 7000; x++ {
		sb.Process(x)
		eb.Process(x)
	}
	inter, diff := &Sampler{}, &Sampler{}
	combineInto(inter, sa, sb, true, newTable(tableSize(sa.n)))
	combineInto(diff, sa, sb, false, newTable(tableSize(sa.n)))
	einter, err := ea.CombineIntersect(eb)
	if err != nil {
		t.Fatalf("combine intersect: %v", err)
	}
	ediff, err := ea.CombineDiff(eb)
	if err != nil {
		t.Fatalf("combine diff: %v", err)
	}
	out = append(out,
		goldenSampler(t, "intersect", inter), goldenSampler(t, "diff", diff),
		goldenEnvelope(t, "intersect", einter), goldenEnvelope(t, "diff", ediff))

	// The production configuration: the registry's gt kind at ε = 0.1.
	info, ok := sketch.Lookup(sketch.KindGT)
	if !ok {
		t.Fatal("gt kind not registered")
	}
	reg := info.New(0.1, 16)
	for _, x := range goldenLabels(5, 4096, 1<<20) {
		reg.Process(x)
	}
	out = append(out, goldenEnvelope(t, "registry-eps0.1", reg))
	return out
}

func readEnvelopeGolden(t *testing.T) map[string][]byte {
	t.Helper()
	f, err := os.Open(envelopeGoldenPath)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update-golden): %v", err)
	}
	defer f.Close()
	want := make(map[string][]byte)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hx, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		b, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want[name] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestEnvelopeGolden(t *testing.T) {
	got := buildGoldenEntries(t)
	if *updateGolden {
		var buf bytes.Buffer
		buf.WriteString("# name hex-encoding; regenerate with go test ./internal/core -run EnvelopeGolden -update-golden\n")
		for _, e := range got {
			fmt.Fprintf(&buf, "%s %s\n", e.name, hex.EncodeToString(e.enc))
		}
		if err := os.MkdirAll(filepath.Dir(envelopeGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(envelopeGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readEnvelopeGolden(t)
	if len(want) != len(got) {
		t.Errorf("golden holds %d entries, the test builds %d", len(want), len(got))
	}
	for _, e := range got {
		w, ok := want[e.name]
		if !ok {
			t.Errorf("%s: missing from golden", e.name)
			continue
		}
		if !bytes.Equal(e.enc, w) {
			t.Errorf("%s: rebuilt encoding differs from golden (%d vs %d bytes)", e.name, len(e.enc), len(w))
		}
	}
	// Decode every golden entry and require an identical re-encode.
	for name, w := range want {
		var re []byte
		var err error
		if strings.HasPrefix(name, "sampler/") {
			var s *Sampler
			if s, err = DecodeSampler(w); err == nil {
				re, err = s.MarshalBinary()
			}
		} else {
			var s sketch.Sketch
			if s, err = sketch.Open(w); err == nil {
				re, err = sketch.Envelope(s)
			}
		}
		if err != nil {
			t.Errorf("%s: decode/re-encode: %v", name, err)
			continue
		}
		if !bytes.Equal(re, w) {
			t.Errorf("%s: decoded entry re-encodes differently", name)
		}
	}
}
