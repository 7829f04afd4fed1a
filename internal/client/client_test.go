package client

import (
	"errors"
	"fmt"
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestBackoffBoundsAndGrowth(t *testing.T) {
	c := New(Config{
		Addr:        "unused",
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  80 * time.Millisecond,
		JitterSeed:  7,
	})
	prevCap := time.Duration(0)
	for retry := 1; retry <= 10; retry++ {
		pre := c.cfg.BackoffBase << (retry - 1)
		if pre <= 0 || pre > c.cfg.BackoffMax {
			pre = c.cfg.BackoffMax
		}
		for i := 0; i < 50; i++ {
			d := c.backoff(retry)
			if d < pre/2 || d > pre {
				t.Fatalf("retry %d: backoff %v outside [%v, %v]", retry, d, pre/2, pre)
			}
		}
		if pre < prevCap {
			t.Fatalf("retry %d: cap shrank", retry)
		}
		prevCap = pre
	}
	// Deep retries must not overflow the shift into a negative wait.
	for retry := 30; retry <= 70; retry += 10 {
		if d := c.backoff(retry); d < 0 || d > c.cfg.BackoffMax {
			t.Fatalf("retry %d: backoff %v", retry, d)
		}
	}
}

func TestJitterVaries(t *testing.T) {
	c := New(Config{Addr: "unused", BackoffBase: time.Second, BackoffMax: time.Second, JitterSeed: 3})
	seen := map[time.Duration]bool{}
	for i := 0; i < 32; i++ {
		seen[c.backoff(1)] = true
	}
	if len(seen) < 2 {
		t.Error("jitter produced a constant backoff")
	}
}

func TestPushExhaustsRetriesAgainstDeadAddr(t *testing.T) {
	// Reserve a port, then close it so nothing listens there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	c := New(Config{
		Addr:        addr,
		Attempts:    3,
		DialTimeout: 200 * time.Millisecond,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		JitterSeed:  1,
	})
	attempts, err := c.Push([]byte("msg"))
	if err == nil {
		t.Fatal("push to dead address succeeded")
	}
	if attempts != 3 {
		t.Errorf("made %d attempts, want 3", attempts)
	}
	if permanent(err) {
		t.Errorf("transport error classified permanent: %v", err)
	}
}

// fakeServer answers every incoming frame with a fixed ack.
func fakeServer(t *testing.T, ack wire.Ack) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if _, _, err := wire.ReadFrame(conn, 0); err != nil {
					return
				}
				wire.WriteFrame(conn, wire.MsgAck, ack.Encode())
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// ackCase is one ack code's client disposition: the typed error it
// maps to. permanentAcks and transientAcks together cover every ack
// code but AckOK, split by whether the retry loop stops or resends.
type ackCase struct {
	code wire.AckCode
	want error
}

var permanentAcks = []ackCase{
	{wire.AckVersionMismatch, ErrVersionMismatch},
	{wire.AckSeedMismatch, ErrSeedMismatch},
	{wire.AckCorrupt, ErrRejected},
	{wire.AckUnsupported, ErrRejected},
	{wire.AckKindMismatch, ErrKindMismatch},
}

var transientAcks = []ackCase{
	{wire.AckBadFrame, ErrFrameDamaged},
	{wire.AckError, ErrCoordinator},
}

func TestTypedAckErrorsArePermanent(t *testing.T) {
	// A named ack code in neither table has a retry behaviour nobody
	// decided on.
	covered := map[wire.AckCode]bool{wire.AckOK: true}
	for _, c := range append(permanentAcks, transientAcks...) {
		covered[c.code] = true
	}
	for i := 0; i <= math.MaxUint8; i++ {
		code := wire.AckCode(i)
		if code.String() != fmt.Sprintf("AckCode(%d)", i) && !covered[code] {
			t.Errorf("ack code %v has no client disposition: add it to permanentAcks or transientAcks", code)
		}
	}

	for _, c := range permanentAcks {
		addr := fakeServer(t, wire.Ack{Code: c.code, Detail: "detail"})
		cl := New(Config{Addr: addr, Attempts: 5, BackoffBase: time.Millisecond, JitterSeed: 1})
		attempts, err := cl.Push([]byte("msg"))
		if !errors.Is(err, c.want) {
			t.Errorf("%v: err = %v, want %v", c.code, err, c.want)
		}
		if attempts != 1 {
			t.Errorf("%v: %d attempts; typed refusals must not be retried", c.code, attempts)
		}
	}
}

// TestTransientAcksAreRetried: wire-level damage (AckBadFrame) and
// server-side failures (AckError) do not condemn the message — the
// retry loop must resend the same payload until attempts run out.
func TestTransientAcksAreRetried(t *testing.T) {
	for _, c := range transientAcks {
		addr := fakeServer(t, wire.Ack{Code: c.code, Detail: "detail"})
		cl := New(Config{Addr: addr, Attempts: 3, BackoffBase: time.Millisecond, JitterSeed: 1})
		attempts, err := cl.Push([]byte("msg"))
		if !errors.Is(err, c.want) {
			t.Errorf("%v: err = %v, want %v", c.code, err, c.want)
		}
		if permanent(err) {
			t.Errorf("%v: classified permanent; must be transient", c.code)
		}
		if attempts != 3 {
			t.Errorf("%v: %d attempts, want 3 (retried to exhaustion)", c.code, attempts)
		}
	}
}

func TestOKAck(t *testing.T) {
	addr := fakeServer(t, wire.Ack{Code: wire.AckOK})
	cl := New(Config{Addr: addr, Attempts: 2, BackoffBase: time.Millisecond, JitterSeed: 1})
	attempts, err := cl.Push([]byte("msg"))
	if err != nil || attempts != 1 {
		t.Errorf("push: attempts=%d err=%v", attempts, err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := New(Config{Addr: "x"})
	if c.cfg.Attempts < 1 || c.cfg.DialTimeout <= 0 || c.cfg.IOTimeout <= 0 ||
		c.cfg.BackoffBase <= 0 || c.cfg.BackoffMax < c.cfg.BackoffBase {
		t.Errorf("defaults not applied: %+v", c.cfg)
	}
}
