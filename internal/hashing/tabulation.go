package hashing

// Tabulation implements simple tabulation hashing: the key is split
// into 8 bytes, each byte indexes its own table of random words, and
// the results are XORed. Simple tabulation is 3-independent and behaves
// like a fully random function for many algorithms (Pătraşcu–Thorup),
// making it a useful third arm in the hash-family ablation (E10).
//
// The raw XOR is a 64-bit value; Hash folds it into [0, p) so that all
// families in the package share one output range.
type Tabulation struct {
	tables [8][256]uint64
}

// NewTabulation fills the tables from the given seed.
func NewTabulation(seed uint64) *Tabulation {
	sm := NewSplitMix64(seed)
	t := &Tabulation{}
	for i := range t.tables {
		for j := range t.tables[i] {
			t.tables[i][j] = sm.Next()
		}
	}
	return t
}

// Hash returns the tabulation hash of x folded into [0, p).
func (t *Tabulation) Hash(x uint64) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v ^= t.tables[i][byte(x>>(8*uint(i)))]
	}
	return modP(v)
}
