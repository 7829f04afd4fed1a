package client

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sketch"
	"repro/internal/wire"
)

// ShardError wraps a failure talking to one shard with the shard's
// identity, so a caller pushing across a cluster can report exactly
// which coordinator refused or vanished. errors.Is/As see through it.
type ShardError struct {
	// Shard is the ring index; Addr its coordinator address.
	Shard int
	Addr  string
	Err   error
}

// Error implements error.
func (e *ShardError) Error() string {
	return fmt.Sprintf("shard %d (%s): %v", e.Shard, e.Addr, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *ShardError) Unwrap() error { return e.Err }

// Sharded is a multi-coordinator client: it routes each pushed
// envelope to the shard that owns the envelope's merge group and
// retries through that shard's own retrying Client. It is safe for
// concurrent use.
type Sharded struct {
	ring    *cluster.Ring
	addrs   []string
	clients []*Client
	// parent, when set (SetParent), is the aggregation tier's root
	// coordinator — the one place a cross-shard expression query can be
	// answered, since it holds every stream's relayed union.
	parent *Client
}

// NewSharded builds a sharded client that routes by ring over the
// given coordinator addresses, one per ring shard index, sharing base
// for every per-shard Client (Addr is overwritten per shard; a
// non-zero JitterSeed is offset per shard so a fleet of shards does
// not back off in lockstep).
func NewSharded(ring *cluster.Ring, addrs []string, base Config) (*Sharded, error) {
	if ring.Shards() != len(addrs) {
		return nil, fmt.Errorf("client: ring has %d shards, %d addresses given", ring.Shards(), len(addrs))
	}
	s := &Sharded{ring: ring, addrs: addrs, clients: make([]*Client, len(addrs))}
	for i, addr := range addrs {
		cfg := base
		cfg.Addr = addr
		if cfg.JitterSeed != 0 {
			cfg.JitterSeed += int64(i)
		}
		s.clients[i] = New(cfg)
	}
	return s, nil
}

// Shard returns the per-shard Client — for queries, stats, or batch
// pushes aimed at one coordinator.
func (s *Sharded) Shard(i int) *Client { return s.clients[i] }

// SetParent registers the aggregation tier's root coordinator, the
// target for expression queries whose leaves span shards. Call before
// sharing the Sharded across goroutines.
func (s *Sharded) SetParent(c *Client) { s.parent = c }

// RouteNamed returns the shard index owning the envelope's merge
// group in the named stream, or an error when the bytes are not a
// sketch envelope.
func (s *Sharded) RouteNamed(stream string, envelope []byte) (int, error) {
	kind, digest, ok := sketch.PeekHeader(envelope)
	if !ok {
		return 0, fmt.Errorf("client: %w: not a sketch envelope, cannot route", ErrRejected)
	}
	return s.ring.Owner(cluster.GroupKey{Stream: stream, Kind: kind, Digest: digest}), nil
}

// PushNamed routes one envelope to the shard owning its merge group in
// the named stream ("" for the default stream) and pushes it through
// that shard's retry loop. Failures come back wrapped in *ShardError.
func (s *Sharded) PushNamed(stream string, envelope []byte) (shard, attempts int, err error) {
	shard, err = s.RouteNamed(stream, envelope)
	if err != nil {
		return 0, 0, err
	}
	attempts, err = s.clients[shard].PushNamed(stream, envelope)
	if err != nil {
		err = &ShardError{Shard: shard, Addr: s.addrs[shard], Err: err}
	}
	return shard, attempts, err
}

// PushBatchNamed routes a batch of records to their owning shards,
// each by its own (stream, kind, digest) key, and pushes each shard's
// slice over one batched connection (see Client.PushBatchNamed).
// Shards are attempted independently: one shard's failure does not
// stop deliveries to the others, and every failure comes back as a
// *ShardError inside the joined error. It returns the total number of
// records durably acked.
func (s *Sharded) PushBatchNamed(records []Record) (pushed int, err error) {
	perShard := make([][]Record, len(s.clients))
	for _, rec := range records {
		shard, rerr := s.RouteNamed(rec.Stream, rec.Envelope)
		if rerr != nil {
			return 0, rerr
		}
		perShard[shard] = append(perShard[shard], rec)
	}
	var errs []error
	for shard, batch := range perShard {
		if len(batch) == 0 {
			continue
		}
		n, berr := s.clients[shard].PushBatchNamed(batch)
		pushed += n
		if berr != nil {
			errs = append(errs, &ShardError{Shard: shard, Addr: s.addrs[shard], Err: berr})
		}
	}
	return pushed, errors.Join(errs...)
}

// QueryExpr evaluates a set expression against the cluster. The kind
// tag and config digest identify the sketch configuration the
// expression's stream groups share (the same pair every envelope
// header carries). When every leaf's group lands on one shard, the
// query goes to that shard — its groups are authoritative for the
// streams it owns. Leaves spanning shards can only be answered where
// all their merged state coexists: the parent coordinator (SetParent),
// whose relayed groups converge to every shard's union.
func (s *Sharded) QueryExpr(eq wire.ExprQuery, kind uint8, digest uint64) (*wire.ExprResult, error) {
	if eq.Expr == nil {
		return nil, fmt.Errorf("client: %w: empty expression", ErrRejected)
	}
	if err := eq.Expr.Validate(); err != nil {
		return nil, fmt.Errorf("client: %w: %w", ErrRejected, err)
	}
	owner := -1
	colocated := true
	for _, stream := range eq.Expr.Leaves(nil) {
		shard := s.ring.Owner(cluster.GroupKey{Stream: stream, Kind: sketch.Kind(kind), Digest: digest})
		if owner == -1 {
			owner = shard
		} else if shard != owner {
			colocated = false
		}
	}
	if colocated && owner >= 0 {
		res, err := s.clients[owner].QueryExpr(eq)
		if err != nil {
			return nil, &ShardError{Shard: owner, Addr: s.addrs[owner], Err: err}
		}
		return res, nil
	}
	if s.parent == nil {
		return nil, fmt.Errorf("client: %w: expression leaves span shards and no parent coordinator is set", ErrRejected)
	}
	return s.parent.QueryExpr(eq)
}
