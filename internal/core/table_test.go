package core

import (
	"testing"

	"repro/internal/hashing"
)

// checkTable verifies the open-addressing table's own invariants: the
// length is a power of two, the load stays at most three quarters,
// every occupied slot is reachable from its home without crossing an
// empty slot, the cached level is the label's level and at least the
// sampler's, and n and weightSum match the occupied slots.
func checkTable(t *testing.T, s *Sampler) {
	t.Helper()
	size := len(s.table)
	if size < minTable || size&(size-1) != 0 {
		t.Fatalf("table length %d is not a power of two ≥ %d", size, minTable)
	}
	n, sum := 0, uint64(0)
	for i, e := range s.table {
		if e.lv == 0 {
			continue
		}
		n++
		sum += e.weight
		if got, ok := s.find(e.label); !ok || got != i {
			t.Fatalf("label %d in slot %d is not reachable from its home (find: %d, %v)", e.label, i, got, ok)
		}
		if lvl := s.levelOf(e.label); int(e.lv) != lvl+1 || lvl < s.level {
			t.Fatalf("label %d caches lv %d, level %d, sampler level %d", e.label, e.lv, lvl, s.level)
		}
	}
	if n != s.n || sum != s.weightSum {
		t.Fatalf("table holds %d entries weighing %d, sampler says %d and %d", n, sum, s.n, s.weightSum)
	}
	if 4*n > 3*size {
		t.Fatalf("table of %d slots holds %d entries, over three quarters", size, n)
	}
}

// TestTableInvariants drives every table operation — probing inserts,
// raises whose one-walk filter lifts every entry and re-places each
// survivor, decode into a count-sized table, growth while merging into
// it, set-operation results and a reset — on small capacities, where
// raises and runs that wrap around the end of the table are frequent.
func TestTableInvariants(t *testing.T) {
	r := hashing.NewXoshiro256(11)
	for trial := 0; trial < 40; trial++ {
		cfg := Config{Capacity: 1 + r.Intn(40), Seed: r.Uint64(), Family: FamilyKind(trial % 3)}
		a, b := NewSampler(cfg), NewSampler(cfg)
		for i := 0; i < 3000; i++ {
			a.ProcessWeighted(r.Uint64n(4000), 1+r.Uint64n(9))
			b.ProcessWeighted(r.Uint64n(8000), 1+r.Uint64n(9))
			if i%500 == 0 {
				checkTable(t, a)
			}
		}
		checkTable(t, a)
		checkTable(t, b)

		// A decoded sparse sample gets a small table; merging a full
		// one into it must grow the table, not overfill it.
		small := NewSampler(cfg)
		for x := uint64(0); x < 3; x++ {
			small.Process(x)
		}
		enc, err := small.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		d, err := DecodeSampler(enc)
		if err != nil {
			t.Fatal(err)
		}
		checkTable(t, d)
		if err := d.Merge(a); err != nil {
			t.Fatal(err)
		}
		checkTable(t, d)
		if err := d.Merge(b); err != nil {
			t.Fatal(err)
		}
		checkTable(t, d)

		inter, diff := &Sampler{}, &Sampler{}
		combineInto(inter, a, b, true, make([]entry, tableSize(a.n)))
		checkTable(t, inter)
		combineInto(diff, a, b, false, make([]entry, tableSize(a.n)))
		checkTable(t, diff)
		d.Process(1 << 40)
		checkTable(t, d)
		d.Reset()
		checkTable(t, d)
	}
}
