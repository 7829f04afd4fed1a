// Package ann exercises the allocflow annotation grammar: reasoned
// allocflow:amortized and allocflow:cold annotations suppress
// findings, bare ones are findings themselves, and an amortized call
// covers everything its callee allocates.
package ann

// Buf is a growable buffer with hot push/lookup paths.
type Buf struct {
	data []uint64
	n    int
}

// Push grows by doubling: the append is reviewed-amortized, so it is
// not a finding (but stays in the summary for runtime ceilings).
//
// hotpath: called once per stream item.
func (b *Buf) Push(v uint64) {
	// allocflow:amortized doubling growth, O(1) amortized per push
	b.data = append(b.data, v)
	b.n++
}

// PushBare has the same append but a bare annotation: the annotation
// itself is a finding, and it covers nothing, so the append is
// reported too.
//
// hotpath: called once per stream item.
func (b *Buf) PushBare(v uint64) {
	/* allocflow:amortized */ b.data = append(b.data, v) // want "bare allocflow:amortized annotation" "1 append site"
}

// Repair is hot but its allocation sits on a reviewed-cold branch:
// the statement is pruned from the summary entirely.
//
// hotpath: called once per stream item.
func (b *Buf) Repair(v uint64) bool {
	if b.n > cap(b.data) {
		// allocflow:cold repair path reached only after corruption
		b.data = make([]uint64, b.n)
	}
	return b.n > 0
}

// RepairBare is the same shape with a bare cold annotation: finding
// plus the unpruned make.
//
// hotpath: called once per stream item.
func (b *Buf) RepairBare(v uint64) bool {
	if b.n > cap(b.data) {
		/* allocflow:cold */ b.data = make([]uint64, b.n) // want "bare allocflow:cold annotation" "1 make site"
	}
	return b.n > 0
}

// build allocates the lookup table.
func (b *Buf) build() {
	b.data = make([]uint64, 64)
}

// Lookup builds its table on first use: the annotated call marks every
// site build allocates as amortized, so nothing is reported.
//
// hotpath: called once per stream item.
func (b *Buf) Lookup(v uint64) uint64 {
	if b.data == nil {
		b.build() // allocflow:amortized the table is built once, by the first lookup
	}
	return b.data[v%64]
}

// LookupBare is the same lazy build without the annotation: build's
// make is reported at the call.
//
// hotpath: called once per stream item.
func (b *Buf) LookupBare(v uint64) uint64 {
	if b.data == nil {
		b.build() // want "1 make site"
	}
	return b.data[v%64]
}
