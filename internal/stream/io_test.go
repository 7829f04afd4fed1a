package stream

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	src := NewWithValues(NewUniform(500, 3000, 9), func(l uint64) uint64 { return l%9 + 1 })
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := Collect(src)
	items := Collect(got)
	if len(items) != len(want) {
		t.Fatalf("lengths %d vs %d", len(items), len(want))
	}
	for i := range items {
		if items[i] != want[i] {
			t.Fatalf("item %d: %v vs %v", i, items[i], want[i])
		}
	}
}

func TestWriteReadEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, FromSlice(nil)); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n := Count(got); n != 0 {
		t.Errorf("len = %d", n)
	}
}

func TestReadErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, FromSlice([]Item{{1, 1}, {2, 1}, {3, 1}})); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("XXXX"), good[4:]...),
		"truncated": good[:len(good)-1],
		"trailing":  append(append([]byte{}, good...), 0),
	}
	for name, data := range cases {
		if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrBadStreamFile) {
			t.Errorf("%s: err = %v, want ErrBadStreamFile", name, err)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.gts")
	src := NewUniform(100, 1000, 4)
	if err := WriteFile(path, src); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := Count(got); n != 1000 {
		t.Errorf("len = %d", n)
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.gts")); err == nil {
		t.Error("missing file read succeeded")
	}
}
