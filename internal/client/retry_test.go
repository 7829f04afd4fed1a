package client

// Retry-behavior tests: the properties the errcontract analyzer exists
// to protect. A typed protocol refusal must stop the retry loop on the
// first attempt (errors.Is permanence), a transient transport failure
// must be retried until the coordinator recovers, and the loop's total
// sleep must stay inside the documented backoff envelope.

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// rawReplyServer answers every connection's first frame with raw bytes,
// and counts the connections it accepts.
func rawReplyServer(t *testing.T, reply []byte) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var conns atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func(conn net.Conn) {
				defer conn.Close()
				if _, _, err := wire.ReadFrame(conn, 0); err != nil {
					return
				}
				conn.Write(reply)
			}(conn)
		}
	}()
	return ln.Addr().String(), &conns
}

// TestVersionMismatchFrameNotRetried covers the frame-level (not
// ack-level) version check: a reply whose header carries an unknown
// protocol version must surface as ErrVersionMismatch after exactly
// one attempt — a coordinator from another protocol generation cannot
// be retried into agreement.
func TestVersionMismatchFrameNotRetried(t *testing.T) {
	ack := wire.Ack{Code: wire.AckOK}
	frame := wire.EncodeFrame(wire.MsgAck, ack.Encode())
	frame[2] = wire.Version + 9 // corrupt the version byte only

	addr, _ := rawReplyServer(t, frame)
	cl := New(Config{Addr: addr, Attempts: 5, BackoffBase: time.Millisecond, JitterSeed: 1})
	attempts, err := cl.Push([]byte("msg"))
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v, want ErrVersionMismatch", err)
	}
	if !errors.Is(err, wire.ErrVersion) {
		t.Fatalf("err = %v; the wire cause must stay inspectable through the wrap", err)
	}
	if attempts != 1 {
		t.Errorf("made %d attempts; version mismatches must not be retried", attempts)
	}
}

// TestOversizeReplyNotRetried: a reply larger than the client's
// MaxPayload is refused before its payload is read, and resending the
// request cannot shrink it, so the failure is permanent: one
// connection, one attempt, and the wire cause with the limit it broke.
func TestOversizeReplyNotRetried(t *testing.T) {
	addr, conns := rawReplyServer(t, wire.EncodeFrame(wire.MsgStatsResult, make([]byte, 260)))
	cl := New(Config{Addr: addr, MaxPayload: 64, Attempts: 4, BackoffBase: time.Millisecond, JitterSeed: 1})
	err := cl.Stats(nil)
	if !errors.Is(err, wire.ErrOversize) || !strings.Contains(err.Error(), "payload 260 > limit 64") {
		t.Fatalf("err = %v, want wire.ErrOversize naming the 64-byte limit", err)
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("%d connections, want 1: an oversize reply must not be retried", n)
	}
}

// TestTransientFailuresThenSuccess covers the recovery path: the
// coordinator drops the first two connections without replying, then
// behaves. The push must succeed on the third attempt.
func TestTransientFailuresThenSuccess(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var conns atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if conns.Add(1) <= 2 {
					return // drop without answering: transient
				}
				if _, _, err := wire.ReadFrame(conn, 0); err != nil {
					return
				}
				ack := wire.Ack{Code: wire.AckOK}
				wire.WriteFrame(conn, wire.MsgAck, ack.Encode())
			}(conn)
		}
	}()

	cl := New(Config{
		Addr:        ln.Addr().String(),
		Attempts:    4,
		IOTimeout:   2 * time.Second,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		JitterSeed:  1,
	})
	attempts, err := cl.Push([]byte("msg"))
	if err != nil {
		t.Fatalf("push after transient failures: %v", err)
	}
	if attempts != 3 {
		t.Errorf("made %d attempts, want 3 (two drops + one success)", attempts)
	}
}

// TestRetrySleepWithinEnvelope measures the loop's actual waiting: for
// Attempts=3 against a closed port, total elapsed time must be at
// least the sum of the backoff lower bounds (half the pre-jitter wait
// per retry) and, give or take scheduling, at most the sum of the
// upper bounds plus dial overhead.
func TestRetrySleepWithinEnvelope(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // dials now fail immediately with ECONNREFUSED

	base := 40 * time.Millisecond
	cl := New(Config{
		Addr:        addr,
		Attempts:    3,
		DialTimeout: 200 * time.Millisecond,
		BackoffBase: base,
		BackoffMax:  8 * base,
		JitterSeed:  1,
	})
	start := time.Now()
	_, err = cl.Push([]byte("msg"))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("push to dead address succeeded")
	}
	// Retry 1 waits in [base/2, base], retry 2 in [base, 2·base].
	min := base/2 + base
	max := 3*base + 3*cl.cfg.DialTimeout + time.Second // generous slack for CI
	if elapsed < min {
		t.Errorf("retry loop too fast: %v < %v — backoff sleeps were skipped", elapsed, min)
	}
	if elapsed > max {
		t.Errorf("retry loop too slow: %v > %v", elapsed, max)
	}
}
