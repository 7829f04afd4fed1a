// Package stream provides the workload substrate for the experiments:
// the data-stream model (labeled items with optional values), synthetic
// generators standing in for the network-monitoring traces the paper
// targets (uniform, sequential, Zipf-skewed, and multi-site unions with
// controlled overlap), and a binary on-disk stream format.
//
// All generators are deterministic functions of their seed, so every
// experiment in the repository is exactly reproducible.
package stream

// Item is one stream element: a label (the identity that distinct
// counting is over) and a value (used by SumDistinct aggregates; 1 when
// unused). In the network-monitoring reading, the label is a flow or
// host identifier observed on a link.
type Item struct {
	Label uint64
	Value uint64
}

// Source is a resettable stream of items. Next returns the next item
// and true, or a zero Item and false after the last one. Reset rewinds
// the source to its beginning; a reset source replays the identical
// item sequence.
type Source interface {
	Next() (Item, bool)
	Reset()
}

// Collect drains src into a slice (resetting it first) and returns the
// items in stream order. Intended for tests and small experiments; the
// generators themselves never materialize their streams.
func Collect(src Source) []Item {
	src.Reset()
	var items []Item
	for {
		it, ok := src.Next()
		if !ok {
			return items
		}
		items = append(items, it)
	}
}

// Feed resets src and applies fn to every item in order.
func Feed(src Source, fn func(Item)) {
	src.Reset()
	for {
		it, ok := src.Next()
		if !ok {
			return
		}
		fn(it)
	}
}

// Count resets src and returns its length.
func Count(src Source) int {
	n := 0
	Feed(src, func(Item) { n++ })
	return n
}

// SliceSource adapts a concrete item slice into a Source.
type SliceSource struct {
	items []Item
	pos   int
}

// FromSlice returns a Source replaying items. The slice is not copied.
func FromSlice(items []Item) *SliceSource {
	return &SliceSource{items: items}
}

// Next implements Source.
func (s *SliceSource) Next() (Item, bool) {
	if s.pos >= len(s.items) {
		return Item{}, false
	}
	it := s.items[s.pos]
	s.pos++
	return it, true
}

// Reset implements Source.
func (s *SliceSource) Reset() { s.pos = 0 }
