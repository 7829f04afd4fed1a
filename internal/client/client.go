// Package client implements the site side of the networked protocol:
// it dials the unionstreamd coordinator, pushes the site's one-shot
// sketch message, and asks union queries. It is what cmd/unionpush and
// the internal/distnet transport are built on.
//
// Transient failures (refused or dropped connections, timeouts) are
// retried with capped exponential backoff plus jitter; protocol
// refusals from the coordinator are permanent and surface as typed
// errors — ErrVersionMismatch, ErrSeedMismatch, and
// ErrKindMismatch — so a mis-deployed site fails loudly instead of
// hanging or spinning.
package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/failpoint"
	"repro/internal/wire"
)

// Typed failures. The first four are permanent — retrying cannot fix
// a protocol disagreement or a condemned payload; ErrFrameDamaged and
// ErrCoordinator are transient and drive the retry loop.
var (
	// ErrVersionMismatch: the coordinator speaks a different wire
	// protocol version.
	ErrVersionMismatch = errors.New("client: coordinator speaks a different wire version")
	// ErrSeedMismatch: the coordinator refused the sketch's
	// coordination seed (or configuration) — the site is not part of
	// this deployment's coordinated fleet.
	ErrSeedMismatch = errors.New("client: coordination seed rejected by coordinator")
	// ErrKindMismatch: the coordinator is pinned to a different sketch
	// kind (server.Config.RequireKind) than the one pushed.
	ErrKindMismatch = errors.New("client: sketch kind rejected by coordinator")
	// ErrRejected: the coordinator refused the message for another
	// reason (corrupt payload, unsupported request); the wrapped
	// detail explains.
	ErrRejected = errors.New("client: message rejected by coordinator")
	// ErrFrameDamaged: the coordinator reported wire-level damage
	// (AckBadFrame) — the bytes were corrupted in transit, not the
	// message, so the push is retried with the same payload. Transient.
	ErrFrameDamaged = errors.New("client: frame damaged in transit")
	// ErrCoordinator: the coordinator reported a server-side failure
	// (AckError: a failed WAL append, an internal fault). The message
	// itself was never condemned, so the operation is retried.
	// Transient.
	ErrCoordinator = errors.New("client: coordinator reported an internal error")
)

// Config parameterizes a Client. The zero value targets nothing; set
// Addr. All other fields have serviceable defaults.
type Config struct {
	// Addr is the coordinator's TCP address, e.g. "10.0.0.5:7600".
	Addr string
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// IOTimeout bounds each request/response round trip (default 15s).
	IOTimeout time.Duration
	// Attempts is the total number of tries per operation, first
	// included (default 4; minimum 1).
	Attempts int
	// BackoffBase is the pre-jitter wait before the first retry; it
	// doubles per retry (default 50ms).
	BackoffBase time.Duration
	// BackoffMax caps the pre-jitter backoff (default 3s).
	BackoffMax time.Duration
	// MaxPayload bounds response frames (0 = wire.DefaultMaxPayload).
	MaxPayload uint32
	// JitterSeed seeds the backoff jitter; 0 derives one from the
	// clock. Fixed seeds make retry schedules reproducible in tests.
	JitterSeed int64
}

func (c Config) withDefaults() Config {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.IOTimeout <= 0 {
		c.IOTimeout = 15 * time.Second
	}
	if c.Attempts < 1 {
		c.Attempts = 4
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 3 * time.Second
	}
	return c
}

// Client pushes sketches and queries one coordinator. It is safe for
// concurrent use; every operation is a self-contained dial/request/
// response exchange, matching the paper's one-message-per-site shape.
type Client struct {
	cfg Config

	mu  sync.Mutex // guards: rng
	rng *rand.Rand
}

// New returns a client for the given configuration.
func New(cfg Config) *Client {
	cfg = cfg.withDefaults()
	seed := cfg.JitterSeed
	if seed == 0 {
		// Backoff jitter SHOULD differ per process — it never touches
		// sketch state or cross-site coordination.
		// unionlint:allow seedcheck jitter is deliberately per-process
		seed = time.Now().UnixNano()
	}
	return &Client{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Push sends one sketch message (a sketch.Envelope of any registered
// kind) and waits for the coordinator's ack, retrying transient
// failures. It returns the number of attempts made alongside any
// final error.
func (c *Client) Push(envelope []byte) (attempts int, err error) {
	return c.PushNamed("", envelope)
}

// PushNamed sends one sketch message bound for the named stream. The
// empty stream name is the default stream, and the push travels as a
// plain MsgPush — byte-identical to what an un-upgraded site sends.
func (c *Client) PushNamed(stream string, envelope []byte) (attempts int, err error) {
	if err := wire.ValidStreamName(stream); err != nil {
		return 0, fmt.Errorf("%w: %w", ErrRejected, err)
	}
	_, attempts, err = c.exchange(1, func(l *link, _ int) error {
		return c.push(l, stream, envelope)
	})
	return attempts, err
}

// Query asks the coordinator for one estimate, retrying transient
// failures (queries are read-only, so retries are safe).
func (c *Client) Query(q wire.Query) (est float64, err error) {
	_, _, err = c.exchange(1, func(l *link, _ int) error {
		reply, err := c.request(l, wire.MsgQuery, q.Encode(), wire.MsgQueryResult)
		if err == nil {
			est, err = wire.DecodeQueryResult(reply)
		}
		return err
	})
	return est, err
}

// QueryExpr asks the coordinator to evaluate one set expression over
// named streams and returns the per-node result tree (value and error
// bound at every operator). Retried like Query — expression queries
// are read-only.
func (c *Client) QueryExpr(eq wire.ExprQuery) (res *wire.ExprResult, err error) {
	payload, err := eq.Encode()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrRejected, err)
	}
	_, _, err = c.exchange(1, func(l *link, _ int) error {
		reply, err := c.request(l, wire.MsgQueryExpr, payload, wire.MsgQueryExprResult)
		if err == nil {
			res, err = wire.DecodeExprResult(reply)
		}
		return err
	})
	return res, err
}

// DistinctCount queries the union F0 estimate for the given
// coordination seed.
func (c *Client) DistinctCount(seed uint64) (float64, error) {
	return c.Query(wire.Query{Kind: wire.QueryDistinct, HasSeed: true, Seed: seed})
}

// SumDistinct queries the duplicate-insensitive sum estimate for the
// given coordination seed.
func (c *Client) SumDistinct(seed uint64) (float64, error) {
	return c.Query(wire.Query{Kind: wire.QuerySum, HasSeed: true, Seed: seed})
}

// Stats fetches the coordinator's introspection snapshot. The result
// is decoded into out (pass a *server.Stats or any compatible
// struct/map); pass nil to only check reachability.
func (c *Client) Stats(out any) error {
	_, _, err := c.exchange(1, func(l *link, _ int) error {
		reply, err := c.request(l, wire.MsgStats, nil, wire.MsgStatsResult)
		if err != nil || out == nil {
			return err
		}
		return json.Unmarshal(reply, out)
	})
	return err
}

// link is one exchange's connection to the coordinator: the conn, the
// reader its replies arrive through and the buffer its request frames
// are built in. Both buffers outlive a redial, so an exchange's frames
// reuse them from op to op.
type link struct {
	conn net.Conn
	fr   wire.Reader
	out  []byte
}

// exchange is the client's one retry loop: it runs ops [0, n) in
// order over one link, each under a fresh IOTimeout deadline. A
// transient failure closes the connection, backs off, redials and
// resumes at the failing op, so an op may be delivered more than once
// — which the coordinator's idempotent merge absorbs. Each op gets
// cfg.Attempts tries, dial failures included, so one flaky op cannot
// starve the rest of their retries. A permanent failure stops the
// loop. It returns the number of ops completed and the attempts spent
// on the last op it ran.
func (c *Client) exchange(n int, op func(l *link, i int) error) (done, attempts int, err error) {
	var l link
	defer func() {
		if l.conn != nil {
			l.conn.Close()
		}
	}()
	for done < n {
		if attempts++; attempts > 1 {
			time.Sleep(c.backoff(attempts - 1))
		}
		if l.conn == nil {
			if err = failpoint.Inject(failpoint.ClientDial); err == nil {
				if l.conn, err = net.DialTimeout("tcp", c.cfg.Addr, c.cfg.DialTimeout); err == nil {
					l.fr.Reset(l.conn, c.cfg.MaxPayload)
				}
			}
		}
		if err == nil {
			if err = l.conn.SetDeadline(time.Now().Add(c.cfg.IOTimeout)); err == nil {
				err = op(&l, done)
			}
		}
		switch {
		case err == nil:
			if done++; done < n {
				attempts = 0
			}
		case permanent(err):
			return done, attempts, err
		default:
			// The connection is in an unknown state (a half-written
			// frame, a lost reply): drop it and resume on a fresh one.
			if l.conn != nil {
				l.conn.Close()
				l.conn = nil
			}
			if attempts == c.cfg.Attempts {
				return done, attempts, fmt.Errorf("client: failed after %d attempts: %w", attempts, err)
			}
		}
	}
	return done, attempts, nil
}

// push sends envelope to stream as one push frame and waits for its
// ack.
func (c *Client) push(l *link, stream string, envelope []byte) (err error) {
	if l.out, err = wire.AppendPush(l.out[:0], stream, envelope); err != nil {
		return fmt.Errorf("%w: %w", ErrRejected, err)
	}
	_, err = c.roundTrip(l, wire.MsgAck)
	return err
}

// request sends one frame of type t wrapping payload and reads the
// reply, which must be of type want.
func (c *Client) request(l *link, t wire.MsgType, payload []byte, want wire.MsgType) ([]byte, error) {
	l.out = wire.AppendFrame(l.out[:0], t, payload)
	return c.roundTrip(l, want)
}

// roundTrip writes the request frame in l.out and reads the reply,
// which must be of type want. An ack in its place is mapped through
// ackError, so a refusal surfaces as its typed error. The reply is
// valid until the link reads another.
func (c *Client) roundTrip(l *link, want wire.MsgType) ([]byte, error) {
	if err := failpoint.Inject(failpoint.ClientWrite); err != nil {
		return nil, err
	}
	if _, err := l.conn.Write(l.out); err != nil {
		return nil, err
	}
	typ, reply, err := readFrame(&l.fr)
	if err != nil {
		return nil, err
	}
	if typ == wire.MsgAck {
		if err := ackError(reply); err != nil || want == wire.MsgAck {
			return nil, err
		}
	}
	if typ != want {
		return nil, fmt.Errorf("%w: unexpected %s reply, want %s", ErrRejected, typ, want)
	}
	return reply, nil
}

// readFrame reads one coordinator reply frame, typing version
// disagreements. It takes the Reader rather than the link so the fuzz
// harness can drive it with raw byte streams.
func readFrame(fr *wire.Reader) (wire.MsgType, []byte, error) {
	if err := failpoint.Inject(failpoint.ClientRead); err != nil {
		return 0, nil, err
	}
	typ, payload, err := fr.Next()
	if errors.Is(err, wire.ErrVersion) {
		// The reply is framed in a version we don't speak: the
		// coordinator is from a different protocol generation.
		return 0, nil, fmt.Errorf("%w: %w", ErrVersionMismatch, err)
	}
	return typ, payload, err
}

// ackError maps an ack payload to nil or a typed error.
func ackError(payload []byte) error {
	ack, err := wire.DecodeAck(payload)
	if err != nil {
		return err
	}
	switch ack.Code {
	case wire.AckOK:
		return nil
	case wire.AckVersionMismatch:
		return fmt.Errorf("%w: %s", ErrVersionMismatch, ack.Detail)
	case wire.AckSeedMismatch:
		return fmt.Errorf("%w: %s", ErrSeedMismatch, ack.Detail)
	case wire.AckKindMismatch:
		return fmt.Errorf("%w: %s", ErrKindMismatch, ack.Detail)
	case wire.AckBadFrame:
		// Deliberately NOT ErrRejected: the frame was damaged in
		// transit, so the retry loop resends the same payload.
		return fmt.Errorf("%w: %s", ErrFrameDamaged, ack.Detail)
	case wire.AckError:
		// Also transient: the coordinator failed, not the message —
		// a restarted or recovered coordinator may accept the retry.
		return fmt.Errorf("%w: %s", ErrCoordinator, ack.Detail)
	default:
		// AckCorrupt, AckUnsupported, unknown codes: the payload
		// itself was condemned — permanent.
		return fmt.Errorf("%w: %s: %s", ErrRejected, ack.Code, ack.Detail)
	}
}

// permanent reports whether err is a protocol-level refusal that
// retrying cannot fix. A reply over cfg.MaxPayload is one: resending
// the request cannot shrink it.
func permanent(err error) bool {
	return errors.Is(err, ErrVersionMismatch) ||
		errors.Is(err, ErrSeedMismatch) ||
		errors.Is(err, ErrKindMismatch) ||
		errors.Is(err, ErrRejected) ||
		errors.Is(err, wire.ErrOversize)
}

// backoff returns the wait before the retry-th retry (retry ≥ 1):
// BackoffBase·2^(retry-1) capped at BackoffMax, with the upper half
// jittered so a fleet of sites recovering from the same coordinator
// restart does not reconnect in lockstep.
func (c *Client) backoff(retry int) time.Duration {
	d := c.cfg.BackoffBase << (retry - 1)
	if d <= 0 || d > c.cfg.BackoffMax { // <= 0 guards shift overflow
		d = c.cfg.BackoffMax
	}
	half := d / 2
	c.mu.Lock()
	j := time.Duration(c.rng.Int63n(int64(half) + 1))
	c.mu.Unlock()
	return half + j
}
