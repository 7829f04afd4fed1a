package stream

import (
	"bytes"
	"testing"
)

// FuzzRead checks the stream-file decoder on arbitrary bytes: it must
// error or produce a replayable source, never panic.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, FromSlice([]Item{{1, 1}, {2, 1}, {3, 1}, {1 << 60, 1}})); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("GTS1"))
	f.Add(buf.Bytes()[:buf.Len()-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		src, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A decoded source must replay identically.
		a := Collect(src)
		b := Collect(src)
		if len(a) != len(b) {
			t.Fatal("replay changed length")
		}
		var out bytes.Buffer
		if err := Write(&out, src); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
	})
}
