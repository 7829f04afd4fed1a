package stream

import (
	"testing"

	"repro/internal/exact"
)

func TestFromSlice(t *testing.T) {
	items := []Item{{1, 1}, {2, 5}, {1, 1}}
	s := FromSlice(items)
	got := Collect(s)
	if len(got) != 3 || got[1].Value != 5 {
		t.Errorf("Collect = %v", got)
	}
	if n := Count(s); n != 3 {
		t.Errorf("Count = %d", n)
	}
	// Collect resets, so a second Collect sees everything again.
	if len(Collect(s)) != 3 {
		t.Error("replay after Collect failed")
	}
}

func TestCountAndFeed(t *testing.T) {
	s := FromSlice([]Item{{1, 1}, {2, 1}, {3, 1}})
	if Count(s) != 3 {
		t.Error("Count wrong")
	}
	sum := uint64(0)
	Feed(s, func(it Item) { sum += it.Label })
	if sum != 6 {
		t.Errorf("Feed sum = %d", sum)
	}
}

func TestUniformDeterministicAndInRange(t *testing.T) {
	a := NewUniform(100, 1000, 7)
	b := NewUniform(100, 1000, 7)
	ia, ib := Collect(a), Collect(b)
	if len(ia) != 1000 {
		t.Fatalf("len = %d", len(ia))
	}
	for i := range ia {
		if ia[i] != ib[i] {
			t.Fatal("same seed produced different streams")
		}
		if ia[i].Label >= 100 {
			t.Fatalf("label %d out of universe", ia[i].Label)
		}
	}
}

func TestUniformCoversUniverse(t *testing.T) {
	d := exact.NewDistinct()
	Feed(NewUniform(50, 5000, 3), func(it Item) { d.Process(it.Label) })
	if d.Count() != 50 {
		t.Errorf("distinct = %d, want 50 (coupon collector)", d.Count())
	}
}

func TestSequential(t *testing.T) {
	s := NewSequential(5)
	items := Collect(s)
	for i, it := range items {
		if it.Label != uint64(i) {
			t.Fatalf("item %d label %d", i, it.Label)
		}
	}
	st := NewSequentialStride(3, 10, 100)
	items = Collect(st)
	want := []uint64{100, 110, 120}
	for i, it := range items {
		if it.Label != want[i] {
			t.Fatalf("stride item %d = %d, want %d", i, it.Label, want[i])
		}
	}
}

func TestZipfSkew(t *testing.T) {
	// Higher skew concentrates mass on low ranks.
	countTop := func(s float64) int {
		top := 0
		Feed(NewZipf(10000, 20000, s, 5), func(it Item) {
			if it.Label < 10 {
				top++
			}
		})
		return top
	}
	flat := countTop(0)
	skewed := countTop(1.2)
	verySkewed := countTop(2.5)
	if !(flat < skewed && skewed < verySkewed) {
		t.Errorf("top-10 mass not increasing with skew: %d, %d, %d", flat, skewed, verySkewed)
	}
	// s=0 is uniform: top-10 of 10000 labels over 20000 items ≈ 20.
	if flat > 100 {
		t.Errorf("uniform top-10 count %d too high", flat)
	}
	// s=2.5: the vast majority of items hit the top 10.
	if verySkewed < 15000 {
		t.Errorf("skewed top-10 count %d too low", verySkewed)
	}
}

func TestZipfDeterministicAndRange(t *testing.T) {
	a, b := NewZipf(1000, 5000, 1.0, 9), NewZipf(1000, 5000, 1.0, 9)
	ia, ib := Collect(a), Collect(b)
	for i := range ia {
		if ia[i] != ib[i] {
			t.Fatal("same seed differs")
		}
		if ia[i].Label >= 1000 {
			t.Fatalf("label %d out of range", ia[i].Label)
		}
	}
}

func TestGeneratorPanics(t *testing.T) {
	cases := map[string]func(){
		"uniform universe": func() { NewUniform(0, 1, 1) },
		"uniform n":        func() { NewUniform(1, 0, 1) },
		"sequential n":     func() { NewSequential(0) },
		"stride zero":      func() { NewSequentialStride(1, 0, 0) },
		"zipf universe":    func() { NewZipf(0, 1, 1, 1) },
		"zipf huge":        func() { NewZipf(1<<30, 1, 1, 1) },
		"zipf skew":        func() { NewZipf(10, 10, -1, 1) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWithValues(t *testing.T) {
	src := NewWithValues(NewSequential(10), func(l uint64) uint64 { return l * 2 })
	items := Collect(src)
	for _, it := range items {
		if it.Value != it.Label*2 {
			t.Fatalf("value %d for label %d", it.Value, it.Label)
		}
	}
}
