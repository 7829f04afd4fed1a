package faultnet

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/distsim"
	"repro/internal/wire"
)

// ackServer accepts connections, reads frames, and answers each with
// an AckOK frame, counting every frame successfully read.
func ackServer(t *testing.T) (addr string, frames *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	frames = &atomic.Int64{}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					if _, _, err := wire.ReadFrame(conn, 0); err != nil {
						return
					}
					frames.Add(1)
					if err := wire.WriteFrame(conn, wire.MsgAck, wire.Ack{Code: wire.AckOK}.Encode()); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), frames
}

// exchange dials addr, sends one push frame, and returns the ack read
// error (nil on success).
func exchange(t *testing.T, addr string, payload []byte, timeout time.Duration) error {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if err := wire.WriteFrame(conn, wire.MsgPush, payload); err != nil {
		return err
	}
	_, _, err = wire.ReadFrame(conn, 0)
	return err
}

func TestPassThroughAndTrace(t *testing.T) {
	addr, frames := ackServer(t)
	acct := distsim.NewByteAccountant()
	p, err := New(addr, Script{{}}, WithAccountant(acct))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	payload := []byte("sketch bytes")
	if err := exchange(t, p.Addr(), payload, 2*time.Second); err != nil {
		t.Fatalf("clean exchange through proxy: %v", err)
	}
	p.Close() // flush handlers so the trace is complete

	if got := frames.Load(); got != 1 {
		t.Fatalf("server read %d frames, want 1", got)
	}
	tr := p.Trace()
	if len(tr) != 1 {
		t.Fatalf("%d trace events, want 1", len(tr))
	}
	wantUp := int64(wire.HeaderSize + len(payload))
	if tr[0].UpBytes != wantUp {
		t.Errorf("up bytes %d, want %d", tr[0].UpBytes, wantUp)
	}
	if tr[0].DownBytes == 0 {
		t.Error("ack bytes not forwarded")
	}
	var st distsim.Stats
	acct.FillStats(&st)
	if st.Messages != 1 || st.BytesSent != wantUp {
		t.Errorf("accountant recorded %d messages, %d bytes, want 1, %d", st.Messages, st.BytesSent, wantUp)
	}
}

func TestRejectAndTruncateAndBitFlip(t *testing.T) {
	addr, frames := ackServer(t)
	p, err := New(addr, Script{
		{Reject: true},
		{Up: PathPlan{Kind: Truncate, AfterBytes: 5}},
		{Up: PathPlan{Kind: BitFlip, AfterBytes: wire.HeaderSize}}, // first payload byte
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Conn 0: rejected — the exchange fails without a reply frame.
	if err := exchange(t, p.Addr(), []byte("payload"), time.Second); err == nil {
		t.Error("exchange through rejected connection succeeded")
	}
	// Conn 1: truncated mid-header — no complete frame reaches the
	// server, and the client sees the cut instead of an ack.
	if err := exchange(t, p.Addr(), []byte("payload"), time.Second); err == nil {
		t.Error("exchange through truncated connection succeeded")
	}
	if got := frames.Load(); got != 0 {
		t.Fatalf("server read %d frames through reject/truncate, want 0", got)
	}
	// Conn 2: bit-flipped payload — the frame arrives complete but the
	// server's CRC check must refuse it (read error, no count).
	_ = exchange(t, p.Addr(), []byte("payload"), time.Second)
	if got := frames.Load(); got != 0 {
		t.Fatalf("server accepted a bit-flipped frame (%d)", got)
	}
	p.Close()
	tr := p.Trace()
	if len(tr) != 3 {
		t.Fatalf("%d trace events, want 3", len(tr))
	}
	if tr[1].UpBytes != 5 {
		t.Errorf("truncated conn forwarded %d bytes, want 5", tr[1].UpBytes)
	}
}

func TestBlackHoleDownSwallowsAck(t *testing.T) {
	addr, frames := ackServer(t)
	p, err := New(addr, Script{{Down: PathPlan{Kind: BlackHole}}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	err = exchange(t, p.Addr(), []byte("payload"), 300*time.Millisecond)
	if err == nil {
		t.Fatal("ack arrived through a black-holed down path")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("err = %v, want a timeout", err)
	}
	// The message itself was delivered: only the ack vanished.
	if got := frames.Load(); got != 1 {
		t.Errorf("server read %d frames, want 1 (message delivered, ack swallowed)", got)
	}
}

func TestReplayDuplicatesDelivery(t *testing.T) {
	addr, frames := ackServer(t)
	p, err := New(addr, Script{{Replay: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if err := exchange(t, p.Addr(), []byte("payload"), 2*time.Second); err != nil {
		t.Fatalf("exchange: %v", err)
	}
	p.Close() // wait for the replay to finish
	if got := frames.Load(); got != 2 {
		t.Errorf("server read %d frames, want 2 (original + replay)", got)
	}
	tr := p.Trace()
	if len(tr) != 1 || tr[0].ReplayBytes != tr[0].UpBytes {
		t.Errorf("trace %+v: replay bytes must equal original up bytes", tr)
	}
}

func TestSeededScheduleDeterministicAndSeedSensitive(t *testing.T) {
	a, b := Seeded(7), Seeded(7)
	differ := false
	other := Seeded(8)
	kinds := map[string]bool{}
	for i := 0; i < 200; i++ {
		pa, pb := a.PlanFor(i), b.PlanFor(i)
		if pa != pb {
			t.Fatalf("conn %d: same seed produced %v and %v", i, pa, pb)
		}
		if pa != other.PlanFor(i) {
			differ = true
		}
		kinds[pa.String()] = true
	}
	if !differ {
		t.Error("seeds 7 and 8 produced identical 200-connection schedules")
	}
	// The default mix must actually exercise the fault space.
	if len(kinds) < 5 {
		t.Errorf("default mix produced only %d distinct plans over 200 connections", len(kinds))
	}
	// Order independence: querying plans out of order changes nothing.
	if Seeded(7).PlanFor(50) != a.PlanFor(50) {
		t.Error("PlanFor depends on call order")
	}
}
