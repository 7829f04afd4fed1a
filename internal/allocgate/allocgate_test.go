package allocgate

import (
	"bytes"
	"context"
	"io"
	"math"
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/hashing"
	"repro/internal/server"
	"repro/internal/sketch"
	_ "repro/internal/sketch/kinds"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The measured configuration: the registry's ε, a fixed seed, and
// sketches warmed with tableLabels seeded labels.
const (
	tableEps    = 0.1
	tableSeed   = 42
	tableLabels = 4096
)

// allocTable holds the heap allocations each path makes on its fixed,
// seeded input (see kindPaths and otherPaths). It is exact: a count
// that rises is a regression, and a count that falls must be written
// down, so the table carries no slack for a later regression to hide
// in.
var allocTable = map[string]uint64{
	"gt/process":  0,
	"gt/merge":    0,
	"gt/decode":   3,
	"gt/absorb":   2,
	"gt/envelope": 35,

	"exact/process":  33,
	"exact/merge":    33,
	"exact/decode":   20,
	"exact/absorb":   53,
	"exact/envelope": 4,

	"ams/process":  0,
	"ams/merge":    0,
	"ams/decode":   4,
	"ams/absorb":   4,
	"ams/envelope": 4,

	"bjkst/process":  0,
	"bjkst/merge":    0,
	"bjkst/decode":   5,
	"bjkst/absorb":   7,
	"bjkst/envelope": 10,

	"fm/process":  0,
	"fm/merge":    0,
	"fm/decode":   2,
	"fm/absorb":   2,
	"fm/envelope": 7,

	"kmv/process":  0,
	"kmv/merge":    0,
	"kmv/decode":   2,
	"kmv/absorb":   2,
	"kmv/envelope": 8,

	"hll/process":  0,
	"hll/merge":    0,
	"hll/decode":   2,
	"hll/absorb":   2,
	"hll/envelope": 3,

	"window/process":  29,
	"window/merge":    712,
	"window/decode":   534,
	"window/absorb":   1252,
	"window/envelope": 21,

	"gt/process-weighted": 0,
	"sum/process":         0,
	"wal/append":          0,
	"wal/append-frame":    0,
	"server/push":         2,
	"push/record":         2,
}

// ceilingRows are the rows whose count does not repeat run to run.
// Each holds the largest count observed and fails only on a rise.
var ceilingRows = map[string]bool{
	// Each window level keeps a map whose evict-and-insert churn
	// rehashes it at points that depend on the map's random hash seed,
	// 5 mallocs at a time: 3,000 runs read 19 (104 times), 24 (2,834)
	// and 29 (62).
	"window/process": true,
	// The runtime can allocate inside the measured push on its own
	// account, 1 malloc at a time: a profiled case was the background
	// scavenger growing its timer heap after a collection. Before the
	// coordinator read every frame into one reused buffer, 300 fresh
	// processes read 8 (282 times) and 9 (18); 1,000 runs in one
	// process read 8 (996) and 9 (4).
	"server/push": true,
}

// cost returns the heap allocations and bytes f makes, read from
// runtime.MemStats before and after one call. GOMAXPROCS 1 keeps other
// goroutines from allocating in between, and the collector is off
// because a cycle that starts inside f allocates its own mark workers.
// It counts every malloc: testing.AllocsPerRun floors a mean per run,
// so a branch that allocates once in a hundred items would read 0
// there.
func cost(f func()) (mallocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

func mallocs(f func()) uint64 {
	n, _ := cost(f)
	return n
}

// warmed returns a table-configured sketch of info's kind fed
// tableLabels labels from a generator seeded with labelSeed, and that
// generator, whose next labels the sketch has not seen.
func warmed(info sketch.KindInfo, labelSeed uint64) (sketch.Sketch, *hashing.Xoshiro256) {
	s := info.New(tableEps, tableSeed)
	r := hashing.NewXoshiro256(labelSeed)
	for i := 0; i < tableLabels; i++ {
		s.Process(r.Uint64())
	}
	return s, r
}

func envelope(t *testing.T, s sketch.Sketch) []byte {
	t.Helper()
	env, err := sketch.Envelope(s)
	if err != nil {
		t.Fatalf("envelope: %v", err)
	}
	return env
}

// kindPaths drive one row per registered kind each. Every path runs
// once unmeasured where a first call would pay a one-time cost, then
// once measured.
var kindPaths = []struct {
	name    string
	measure func(t *testing.T, info sketch.KindInfo) uint64
}{
	// tableLabels fresh labels into a warm sketch: inserts and level
	// raises happen inside the measured window.
	{"process", func(t *testing.T, info sketch.KindInfo) uint64 {
		s, r := warmed(info, 1)
		return mallocs(func() {
			for i := 0; i < tableLabels; i++ {
				s.Process(r.Uint64())
			}
		})
	}},
	// One merge of two sketches built from different labels.
	{"merge", func(t *testing.T, info sketch.KindInfo) uint64 {
		a, _ := warmed(info, 1)
		b, _ := warmed(info, 2)
		return mallocs(func() {
			if err := a.Merge(b); err != nil {
				t.Fatalf("merge: %v", err)
			}
		})
	}},
	{"decode", func(t *testing.T, info sketch.KindInfo) uint64 {
		s, _ := warmed(info, 1)
		env := envelope(t, s)
		open := func() {
			if _, err := sketch.Open(env); err != nil {
				t.Fatalf("open: %v", err)
			}
		}
		open()
		return mallocs(open)
	}},
	// Server.Absorb of a second site's envelope into a group the
	// first site's envelope created.
	{"absorb", func(t *testing.T, info sketch.KindInfo) uint64 {
		a, _ := warmed(info, 1)
		b, _ := warmed(info, 2)
		srv := server.New(server.Config{})
		if err := srv.Absorb(envelope(t, a)); err != nil {
			t.Fatalf("absorb: %v", err)
		}
		env := envelope(t, b)
		return mallocs(func() {
			if err := srv.Absorb(env); err != nil {
				t.Fatalf("absorb: %v", err)
			}
		})
	}},
	// sketch.AppendEnvelope into a buffer reused from a first encode.
	{"envelope", func(t *testing.T, info sketch.KindInfo) uint64 {
		s, _ := warmed(info, 1)
		buf := envelope(t, s)
		return mallocs(func() {
			var err error
			if buf, err = sketch.AppendEnvelope(buf[:0], s); err != nil {
				t.Fatalf("envelope: %v", err)
			}
		})
	}},
}

// otherPaths drive the rows that belong to no single kind.
var otherPaths = []struct {
	name    string
	measure func(t *testing.T) uint64
}{
	{"gt/process-weighted", func(t *testing.T) uint64 {
		info, _ := sketch.LookupName("gt")
		s, r := warmed(info, 1)
		w := s.(sketch.Weighted)
		return mallocs(func() {
			for i := 0; i < tableLabels; i++ {
				w.ProcessWeighted(r.Uint64(), 1+r.Uint64n(16))
			}
		})
	}},
	{"sum/process", func(t *testing.T) uint64 {
		s := core.NewSumSampler(core.Config{Capacity: core.CapacityForEpsilon(tableEps), Seed: tableSeed}, 16)
		r := hashing.NewXoshiro256(1)
		feed := func() {
			for i := 0; i < tableLabels; i++ {
				if err := s.Process(r.Uint64n(core.MaxSumLabel), 1+r.Uint64n(16)); err != nil {
					t.Fatalf("process: %v", err)
				}
			}
		}
		feed()
		return mallocs(feed)
	}},
	// One AppendNamed of a warm gt envelope, the in-process absorb's
	// log call, which frames the record in the log's reused scratch
	// buffer.
	{"wal/append", func(t *testing.T) uint64 {
		info, _ := sketch.LookupName("gt")
		s, _ := warmed(info, 1)
		env := envelope(t, s)
		l := replayedLog(t)
		appendOne := func() {
			if err := l.AppendNamed("s", env); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		appendOne()
		return mallocs(appendOne)
	}},
	// One AppendFrame of the same record as the push frame a
	// coordinator read off the network, logged as it arrived.
	{"wal/append-frame", func(t *testing.T) uint64 {
		info, _ := sketch.LookupName("gt")
		s, _ := warmed(info, 1)
		frame, err := wire.AppendPush(nil, "s", envelope(t, s))
		if err != nil {
			t.Fatalf("push frame: %v", err)
		}
		l := replayedLog(t)
		appendOne := func() {
			if err := l.AppendFrame(frame); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		appendOne()
		return mallocs(appendOne)
	}},
	// One MsgPush frame of a warm gt envelope written on a raw loopback
	// connection to a serving coordinator, and its ack read back into a
	// reused buffer: the coordinator's reader reads the frame into its
	// connection's reused buffer and writes an ack encoded once, so
	// only the gt/absorb row's stage allocates.
	{"server/push", func(t *testing.T) uint64 {
		info, _ := sketch.LookupName("gt")
		a, _ := warmed(info, 1)
		b, _ := warmed(info, 2)
		_, addr := serve(t)
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		// A concrete conn converts to io.Reader without a runtime call.
		conn := c.(*net.TCPConn)
		defer conn.Close()
		// The runtime fills the cache behind a net.Conn to io.Writer
		// conversion on about 1 in 1,024 misses, allocating as it does
		// so. Refused pushes run the reader's ack write until its
		// conversion site is cached.
		junk := wire.EncodeFrame(wire.MsgPush, []byte("not a sketch"))
		for i := 0; i < 1<<13; i++ {
			if _, err := conn.Write(junk); err != nil {
				t.Fatalf("push: %v", err)
			}
			if typ, _, err := wire.ReadFrame(conn, 0); err != nil || typ != wire.MsgAck {
				t.Fatalf("push: reply %v, err %v", typ, err)
			}
		}
		okAck := wire.EncodeFrame(wire.MsgAck, wire.Ack{Code: wire.AckOK}.Encode())
		reply := make([]byte, len(okAck))
		push := func(frame []byte) {
			if _, err := conn.Write(frame); err != nil {
				t.Fatalf("push: %v", err)
			}
			if _, err := io.ReadFull(conn, reply); err != nil || !bytes.Equal(reply, okAck) {
				t.Fatalf("push: reply %q, want %q (err %v)", reply, okAck, err)
			}
		}
		push(wire.EncodeFrame(wire.MsgPush, envelope(t, a)))
		frame := wire.EncodeFrame(wire.MsgPush, envelope(t, b))
		return mallocs(func() { push(frame) })
	}},
	// The extra mallocs of a 9-record kmv PushBatchNamed over an
	// 8-record one, sent to a serving coordinator and counted across
	// client and coordinator: what one more record's round trip costs.
	// It equals kmv/absorb, the coordinator's decode: the exchange
	// builds each frame in its link's reused buffer, each side reads
	// through a reused Reader, and the ack is encoded once.
	{"push/record", func(t *testing.T) uint64 {
		info, _ := sketch.LookupName("kmv")
		records := make([]client.Record, 9)
		for i := range records {
			s, _ := warmed(info, uint64(i+1))
			records[i] = client.Record{Envelope: envelope(t, s)}
		}
		srv, addr := serve(t)
		cl := client.New(client.Config{Addr: addr})
		// Each batch counts the least of three runs, each started once
		// the previous run's connection reader has exited so the next
		// one can reuse its goroutine: the runtime can add a malloc of
		// its own to any one run (see server/push).
		batch := func(n int) uint64 {
			least := uint64(math.MaxUint64)
			for i := 0; i < 3; i++ {
				for srv.Stats().ActiveConns != 0 {
					time.Sleep(time.Millisecond)
				}
				least = min(least, mallocs(func() {
					if _, err := cl.PushBatchNamed(records[:n]); err != nil {
						t.Fatalf("push: %v", err)
					}
				}))
			}
			return least
		}
		batch(9)
		return batch(9) - batch(8)
	}},
}

// serve runs a default coordinator on a loopback listener until the
// test ends and returns it with its address.
func serve(t *testing.T) (*server.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := server.New(server.Config{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// replayedLog opens and replays a log under the default SyncAlways
// policy; a huge segment keeps rotation out of the measured calls.
func replayedLog(t *testing.T) *wal.Log {
	t.Helper()
	l, err := wal.Open(t.TempDir(), wal.Options{SegmentBytes: 1 << 40})
	if err != nil {
		t.Fatalf("wal open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	if _, err := l.Replay(func(string, []byte) error { return nil }); err != nil {
		t.Fatalf("wal replay: %v", err)
	}
	return l
}

// checkRow compares one measured count with its table row.
func checkRow(t *testing.T, row string, got uint64) {
	t.Helper()
	want, ok := allocTable[row]
	switch {
	case !ok:
		t.Errorf("%s: %d mallocs, and no table row", row, got)
	case got > want:
		t.Errorf("%s: %d mallocs, table says %d: the path allocates more than it did", row, got, want)
	case got < want && !ceilingRows[row]:
		t.Errorf("%s: %d mallocs, table says %d: lower the row to %d", row, got, want, got)
	default:
		t.Logf("%s: %d mallocs", row, got)
	}
}

// TestHotPathAllocSummaries measures every path in allocTable on its
// fixed input and checks the count against the table.
func TestHotPathAllocSummaries(t *testing.T) {
	kinds := sketch.Kinds()
	measured := map[string]bool{}
	for _, info := range kinds {
		for _, p := range kindPaths {
			measured[info.Name+"/"+p.name] = true
		}
	}
	for _, p := range otherPaths {
		measured[p.name] = true
	}
	for row := range allocTable {
		if !measured[row] {
			t.Errorf("%s: no path measures this table row", row)
		}
	}
	if r, a := allocTable["push/record"], allocTable["kmv/absorb"]; r != a {
		t.Errorf("push/record is %d, kmv/absorb %d: a pushed record's round trip must add nothing to its absorb", r, a)
	}

	for _, info := range kinds {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			for _, p := range kindPaths {
				p := p
				t.Run(p.name, func(t *testing.T) {
					checkRow(t, info.Name+"/"+p.name, p.measure(t, info))
				})
			}
		})
	}
	for _, p := range otherPaths {
		p := p
		t.Run(p.name, func(t *testing.T) { checkRow(t, p.name, p.measure(t)) })
	}
}

// TestGTProductionConfigAllocs checks the gt/decode and gt/absorb
// rows, measured at the registry's 11 copies of capacity 1200 only,
// at other copy counts and capacities: an envelope decode carves every
// copy's table from one slab, and an absorb stages every copy's
// entries in one run, so both counts hold for any number of copies or
// entries. An absorb holds its row where each group table already has
// room for Capacity+1 entries; at capacity 64 the group's tables,
// sized by their decoded counts, can double while the second site
// merges in, so that capacity is left out of the absorb check.
func TestGTProductionConfigAllocs(t *testing.T) {
	gt, ok := sketch.LookupName("gt")
	if !ok {
		t.Fatal("gt kind not registered")
	}
	measure := func(name string) func(*testing.T, sketch.KindInfo) uint64 {
		for _, p := range kindPaths {
			if p.name == name {
				return p.measure
			}
		}
		t.Fatalf("no %s path", name)
		return nil
	}
	decode, absorb := measure("decode"), measure("absorb")
	for _, copies := range []int{1, 11, 31} {
		// After tableLabels labels, capacity 64 holds a sample raised
		// several levels, 1200 one raised to level 2, and 4800 every
		// label unraised.
		for _, capacity := range []int{64, core.CapacityForEpsilon(tableEps), 4800} {
			info := gt
			info.New = func(_ float64, seed uint64) sketch.Sketch {
				return core.NewEstimator(core.EstimatorConfig{Capacity: capacity, Copies: copies, Seed: seed})
			}
			if got, want := decode(t, info), allocTable["gt/decode"]; got != want {
				t.Errorf("gt/decode with %d copies of capacity %d: %d mallocs, want %d", copies, capacity, got, want)
			}
			if capacity == 64 {
				continue
			}
			if got, want := absorb(t, info), allocTable["gt/absorb"]; got != want {
				t.Errorf("gt/absorb with %d copies of capacity %d: %d mallocs, want %d", copies, capacity, got, want)
			}
		}
	}
}

// registerOpenBytes bounds the heap bytes of one hll or fm envelope
// Open at the table configuration. An opened sketch holds only what
// its envelope encodes: its registers or bitmaps, not the two 16 KiB
// tabulation tables the first Process builds.
const registerOpenBytes = 1 << 10

// TestProductionConfigOpenCost bounds the bytes an hll or fm open
// costs, which a shard pays on every push and its parent on every
// relayed envelope.
func TestProductionConfigOpenCost(t *testing.T) {
	for _, kind := range []string{"hll", "fm"} {
		info, ok := sketch.LookupName(kind)
		if !ok {
			t.Fatalf("kind %q not registered", kind)
		}
		s, _ := warmed(info, 1)
		env := envelope(t, s)
		open := func() {
			if _, err := sketch.Open(env); err != nil {
				t.Fatalf("open: %v", err)
			}
		}
		open()
		_, bytes := cost(open)
		t.Logf("%s/open: %d B", kind, bytes)
		if bytes >= registerOpenBytes {
			t.Errorf("%s envelope Open: %d B, want under %d", kind, bytes, registerOpenBytes)
		}
	}
}
