package exact

import (
	"testing"
	"testing/quick"
)

func TestDistinctBasic(t *testing.T) {
	d := NewDistinct()
	if d.Count() != 0 || d.Sum() != 0 {
		t.Fatal("fresh counter not empty")
	}
	d.Process(1)
	d.Process(2)
	d.Process(1)
	if d.Count() != 2 {
		t.Errorf("Count = %d, want 2", d.Count())
	}
	if d.Sum() != 2 {
		t.Errorf("Sum = %d, want 2", d.Sum())
	}
	if _, ok := d.values[1]; !ok {
		t.Error("label 1 missing")
	}
	if _, ok := d.values[3]; ok {
		t.Error("label 3 present")
	}
}

func TestDistinctWeighted(t *testing.T) {
	d := NewDistinct()
	d.ProcessWeighted(1, 10)
	d.ProcessWeighted(1, 99) // repeat ignored, first value wins
	d.ProcessWeighted(2, 5)
	if d.Sum() != 15 {
		t.Errorf("Sum = %d, want 15", d.Sum())
	}
	if v, ok := d.values[1]; !ok || v != 10 {
		t.Errorf("value of label 1 = %d,%v", v, ok)
	}
	if _, ok := d.values[3]; ok {
		t.Error("label 3 has a value")
	}
}

func TestDistinctWhere(t *testing.T) {
	d := NewDistinct()
	for x := uint64(0); x < 100; x++ {
		d.ProcessWeighted(x, 2)
	}
	if got := d.CountWhere(func(x uint64) bool { return x < 30 }); got != 30 {
		t.Errorf("CountWhere = %d, want 30", got)
	}
	if got := d.SumWhere(func(x uint64) bool { return x < 30 }); got != 60 {
		t.Errorf("SumWhere = %d, want 60", got)
	}
}

func TestDistinctMerge(t *testing.T) {
	a, b := NewDistinct(), NewDistinct()
	for x := uint64(0); x < 60; x++ {
		a.Process(x)
	}
	for x := uint64(40); x < 100; x++ {
		b.Process(x)
	}
	a.Merge(b)
	a.Merge(nil)
	if a.Count() != 100 {
		t.Errorf("merged Count = %d, want 100", a.Count())
	}
}

func TestDistinctMergeQuick(t *testing.T) {
	f := func(xs, ys []uint64) bool {
		a, b, both := NewDistinct(), NewDistinct(), NewDistinct()
		for _, x := range xs {
			a.Process(x)
			both.Process(x)
		}
		for _, y := range ys {
			b.Process(y)
			both.Process(y)
		}
		a.Merge(b)
		return a.Count() == both.Count() && a.Sum() == both.Sum()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistinctString(t *testing.T) {
	d := NewDistinct()
	d.ProcessWeighted(1, 3)
	if got := d.String(); got != "exact.Distinct{count: 1, sum: 3}" {
		t.Errorf("String = %q", got)
	}
}
