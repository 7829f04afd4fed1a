package core

import (
	"testing"

	"repro/internal/hashing"
)

// retained returns s's occupied slots in slot order.
func retained(s *Sampler) []entry {
	var out []entry
	for k := range s.table {
		b := &s.table[k]
		for j, lv := range b.lv {
			if lv != 0 {
				out = append(out, entry{label: b.label[j], weight: b.weight[j], lv: lv})
			}
		}
	}
	return out
}

// checkTable verifies the open-addressing table's own invariants: the
// length is tableSize of the entries it holds at three quarters full
// (a whole number of buckets, none to spare), the load stays at most
// three quarters, every occupied slot is reachable from its home
// without crossing an empty slot, wrapping from the last slot to the
// first, the cached level is the label's level and at least the
// sampler's, and n and weightSum match the occupied slots. It returns
// how many entries sit across the wrap, before their home.
func checkTable(t *testing.T, s *Sampler) (wrapped int) {
	t.Helper()
	size := s.slots()
	if size != tableSize(3*size/4) {
		t.Fatalf("table length %d is not tableSize of the %d entries it holds at three quarters full", size, 3*size/4)
	}
	n, sum := 0, uint64(0)
	for i := 0; i < size; i++ {
		b, j := s.at(i)
		if b.lv[j] == 0 {
			continue
		}
		label := b.label[j]
		n++
		sum += b.weight[j]
		if got, ok := s.find(label); !ok || got != i {
			t.Fatalf("label %d in slot %d is not reachable from its home (find: %d, %v)", label, i, got, ok)
		}
		if i < s.home(label, size) {
			wrapped++
		}
		if lvl := s.levelOf(label); int(b.lv[j]) != lvl+1 || lvl < s.level {
			t.Fatalf("label %d caches lv %d, level %d, sampler level %d", label, b.lv[j], lvl, s.level)
		}
	}
	if n != s.n || sum != s.weightSum {
		t.Fatalf("table holds %d entries weighing %d, sampler says %d and %d", n, sum, s.n, s.weightSum)
	}
	if 4*n > 3*size {
		t.Fatalf("table of %d slots holds %d entries, over three quarters", size, n)
	}
	return wrapped
}

// decode round-trips s through its encoding.
func decode(t *testing.T, s *Sampler) *Sampler {
	t.Helper()
	enc, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeSampler(enc)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestTableInvariants drives every table operation — probing inserts,
// raises whose one-walk filter lifts every entry and re-places each
// survivor, decode into a count-sized table, growth while merging into
// it, set-operation results and a reset — on small capacities, where
// raises and runs that wrap around the end of the table are frequent.
// It also pins the sizing: a built table holds Capacity+1 entries and
// never grows, a decoded one holds twice its count up to Capacity+1,
// and growth stops at the Capacity+1 length.
func TestTableInvariants(t *testing.T) {
	r := hashing.NewXoshiro256(11)
	wrapped, nearFull := 0, 0
	for trial := 0; trial < 40; trial++ {
		cfg := Config{Capacity: 1 + r.Intn(40), Seed: r.Uint64(), Family: FamilyKind(trial % 3)}
		full := tableSize(cfg.Capacity + 1)
		a, b := NewSampler(cfg), NewSampler(cfg)
		built := &a.table[0]
		for i := 0; i < 3000; i++ {
			a.ProcessWeighted(r.Uint64n(4000), 1+r.Uint64n(9))
			b.ProcessWeighted(r.Uint64n(8000), 1+r.Uint64n(9))
			if i%500 == 0 {
				wrapped += checkTable(t, a)
			}
		}
		wrapped += checkTable(t, a) + checkTable(t, b)
		if a.slots() != full || &a.table[0] != built {
			t.Fatalf("capacity %d: a built table of %d slots became %d, want it kept", cfg.Capacity, full, a.slots())
		}

		// A copy decoded from a near-capacity sample has room for
		// Capacity+1 entries, so merging into it never grows it.
		d := decode(t, a)
		wrapped += checkTable(t, d)
		if want := tableSize(max(a.n, min(cfg.Capacity+1, 2*a.n))); d.slots() != want {
			t.Fatalf("capacity %d: a copy decoded from %d entries has %d slots, want %d", cfg.Capacity, a.n, d.slots(), want)
		}
		if 2*a.n >= cfg.Capacity+1 {
			nearFull++
			decoded := &d.table[0]
			if err := d.Merge(b); err != nil {
				t.Fatal(err)
			}
			wrapped += checkTable(t, d)
			if d.slots() != full || &d.table[0] != decoded {
				t.Fatalf("capacity %d: merging into a copy decoded from %d entries moved its table (%d slots, want %d kept)", cfg.Capacity, a.n, d.slots(), full)
			}
		}

		// A decoded sparse sample gets a table sized by its count, not
		// by the capacity; merging full ones into it grows the table,
		// but never past the Capacity+1 length.
		small := NewSampler(cfg)
		for x := uint64(0); x < 3; x++ {
			small.Process(x)
		}
		d = decode(t, small)
		wrapped += checkTable(t, d)
		if limit := tableSize(2 * small.n); d.slots() > limit {
			t.Fatalf("capacity %d: a copy decoded from %d entries has %d slots, want at most %d", cfg.Capacity, small.n, d.slots(), limit)
		}
		if err := d.Merge(a); err != nil {
			t.Fatal(err)
		}
		wrapped += checkTable(t, d)
		if err := d.Merge(b); err != nil {
			t.Fatal(err)
		}
		wrapped += checkTable(t, d)
		if d.slots() > full {
			t.Fatalf("capacity %d: growth took a decoded table to %d slots, past the Capacity+1 length %d", cfg.Capacity, d.slots(), full)
		}

		inter, diff := &Sampler{}, &Sampler{}
		combineInto(inter, a, b, true, newTable(tableSize(a.n)))
		wrapped += checkTable(t, inter)
		combineInto(diff, a, b, false, newTable(tableSize(a.n)))
		wrapped += checkTable(t, diff)
		d.Process(1 << 40)
		wrapped += checkTable(t, d)
		d.Reset()
		checkTable(t, d)
	}
	if wrapped == 0 || nearFull == 0 {
		t.Fatalf("%d entries sat across the wrap and %d decoded copies were near capacity; the trials must exercise both", wrapped, nearFull)
	}

	// A sampler parked at the maximum level keeps every entry there,
	// so its table keeps doubling past the Capacity+1 length. No real
	// label set parks a sampler, so the entries are inserted directly.
	parked := NewSampler(Config{Capacity: 4, Seed: 3})
	parked.level = hashing.MaxLevel
	n := 3 * parked.slots()
	for x := uint64(0); x < uint64(n); x++ {
		parked.insert(x, 1, hashing.MaxLevel+1)
	}
	if parked.n != n || 4*n > 3*parked.slots() {
		t.Fatalf("parked sampler holds %d entries in %d slots, want %d at most three quarters full", parked.n, parked.slots(), n)
	}
	for x := uint64(0); x < uint64(n); x++ {
		if !parked.has(x) {
			t.Fatalf("parked sampler lost label %d while growing", x)
		}
	}
}
