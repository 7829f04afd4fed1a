package distnet

// Sharded-tier topology support: a parent coordinator with N child
// shards relaying into it, wired over real loopback sockets. The
// cluster suite uses it to pin the tree-of-referees equivalence — a
// sharded tier must converge to bit-identical state with a single
// coordinator that absorbed every site push directly — in fault-free
// runs, under seeded chaos on every hop, and across a parent crash.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/server"
)

// ClusterOptions tunes a StartCluster topology. Shards is required;
// everything else has working defaults.
type ClusterOptions struct {
	// Shards is the child-coordinator count (>= 1).
	Shards int
	// RingSeed seeds the consistent-hash ring shared by pushers and
	// shards.
	RingSeed uint64
	// FlushInterval and FlushAfter shape each shard's relay; a zero
	// interval parks the timer (1h) so tests drive flushes explicitly.
	FlushInterval time.Duration
	FlushAfter    int64
	// Attempts, BackoffBase, and IOTimeout tune both the relay
	// upstream clients and the Sharded site client this topology hands
	// out; zero values take the client defaults.
	Attempts    int
	BackoffBase time.Duration
	IOTimeout   time.Duration
	// ShutdownTimeout bounds each coordinator drain (default 10s).
	ShutdownTimeout time.Duration
	// ParentWAL, when non-nil, makes the parent durable: its accepted
	// envelopes are logged and replayed across CrashParent /
	// RestartParent — the sharded leg of the WAL recovery matrix.
	ParentWAL *server.WALConfig
	// InterceptShard rewrites the address sites dial to reach shard i;
	// InterceptUpstream rewrites the parent address each shard's relay
	// dials. The chaos suite routes both hops through faultnet proxies.
	InterceptShard    func(shard int, addr string) (string, error)
	InterceptUpstream func(addr string) (string, error)
}

// Cluster is a running sharded tier: N relay shards, their parent,
// and the ring that routes merge groups across them.
type Cluster struct {
	Ring   *cluster.Ring
	Parent *server.Server
	// ParentAddr is the parent's real listen address (pre-intercept).
	ParentAddr string
	// ShardAddrs are the addresses sites should dial, index-aligned
	// with Servers — intercepted when InterceptShard is set.
	ShardAddrs []string
	Servers    []*server.Server

	opts      ClusterOptions
	serveErrs []chan error // parent at index 0, shard i at index i+1
}

// StartCluster boots the parent and all shards on ephemeral loopback
// listeners. Callers must Close the cluster; on error everything
// already started is torn down.
func StartCluster(opts ClusterOptions) (*Cluster, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("distnet: cluster needs at least 1 shard, got %d", opts.Shards)
	}
	if opts.ShutdownTimeout <= 0 {
		opts.ShutdownTimeout = 10 * time.Second
	}
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = time.Hour
	}
	c := &Cluster{
		Ring:      cluster.NewRing(opts.Shards, 0, opts.RingSeed),
		opts:      opts,
		serveErrs: make([]chan error, opts.Shards+1),
	}

	start := func(srv *server.Server, slot int) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", fmt.Errorf("distnet: cluster listen: %w", err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		c.serveErrs[slot] = done
		return ln.Addr().String(), nil
	}

	c.Parent = server.New(server.Config{WAL: opts.ParentWAL})
	parentAddr, err := start(c.Parent, 0)
	if err != nil {
		return nil, err
	}
	c.ParentAddr = parentAddr
	upstream := parentAddr
	if opts.InterceptUpstream != nil {
		if upstream, err = opts.InterceptUpstream(parentAddr); err != nil {
			c.Close()
			return nil, fmt.Errorf("distnet: intercept upstream: %w", err)
		}
	}

	c.Servers = make([]*server.Server, opts.Shards)
	c.ShardAddrs = make([]string, opts.Shards)
	for i := range c.Servers {
		c.Servers[i] = server.New(server.Config{
			Relay: &server.RelayConfig{
				Upstream:      upstream,
				FlushInterval: opts.FlushInterval,
				FlushAfter:    opts.FlushAfter,
				Attempts:      opts.Attempts,
				BackoffBase:   opts.BackoffBase,
				IOTimeout:     opts.IOTimeout,
				JitterSeed:    int64(i) + 1,
			},
			Cluster: &server.ClusterInfo{Shard: i, Ring: c.Ring},
		})
		addr, err := start(c.Servers[i], i+1)
		if err != nil {
			c.Close()
			return nil, err
		}
		if opts.InterceptShard != nil {
			if addr, err = opts.InterceptShard(i, addr); err != nil {
				c.Close()
				return nil, fmt.Errorf("distnet: intercept shard %d: %w", i, err)
			}
		}
		c.ShardAddrs[i] = addr
	}
	return c, nil
}

// Client returns a ring-aware sharded client over the live topology.
// The parent coordinator is wired in as the cross-shard query target:
// expression queries whose leaves span shards route to it, where every
// stream's relayed union coexists.
func (c *Cluster) Client() (*client.Sharded, error) {
	base := client.Config{
		Attempts:    c.opts.Attempts,
		BackoffBase: c.opts.BackoffBase,
		IOTimeout:   c.opts.IOTimeout,
		JitterSeed:  int64(c.opts.Shards) + 1,
	}
	sc, err := client.NewSharded(c.Ring, c.ShardAddrs, base)
	if err != nil {
		return nil, err
	}
	parentCfg := base
	parentCfg.Addr = c.ParentAddr
	sc.SetParent(client.New(parentCfg))
	return sc, nil
}

// FlushAll runs one relay flush on every shard concurrently and
// returns the total groups delivered upstream. Chaos runs call it in
// a retry loop: a flush that rode into a fault leaves its groups
// dirty, so repeating until PendingRelay drains is the at-least-once
// contract in action.
func (c *Cluster) FlushAll() (int, error) {
	type res struct {
		n   int
		err error
	}
	results := make([]chan res, len(c.Servers))
	for i, srv := range c.Servers {
		ch := make(chan res, 1)
		results[i] = ch
		go func(srv *server.Server) {
			n, err := srv.FlushRelay()
			ch <- res{n, err}
		}(srv)
	}
	var total int
	var errs []error
	for i, ch := range results {
		r := <-ch
		total += r.n
		if r.err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, r.err))
		}
	}
	return total, errors.Join(errs...)
}

// PendingRelay sums the not-yet-relayed absorb count across the
// shards — zero means every absorbed sketch has been acked upstream.
func (c *Cluster) PendingRelay() int64 {
	var pending int64
	for _, srv := range c.Servers {
		for _, g := range srv.Stats().Groups {
			pending += g.PendingRelay
		}
	}
	return pending
}

// CrashParent kills the parent coordinator in place — crash switch,
// no drain flush, no final WAL snapshot — and waits for its serve
// loop to exit. The shards stay up; their flushes fail and their
// groups stay dirty until RestartParent brings a recovered parent
// back on the same address.
func (c *Cluster) CrashParent() error {
	c.Parent.Abort()
	err := <-c.serveErrs[0]
	// Refill the slot with a satisfied channel so Close stays
	// well-formed even if the caller never restarts the parent.
	ch := make(chan error, 1)
	ch <- nil
	c.serveErrs[0] = ch
	return err
}

// RestartParent boots a fresh parent on the crashed one's address
// with the same configuration — WAL directory included, so the new
// daemon replays the old one's log before it accepts. The listen is
// retried briefly in case the kernel is still releasing the port. It
// returns once the parent has finished recovery, or returns the
// recovery error if the new daemon refused to serve (the wal/replay
// crash leg exercises exactly that refusal).
func (c *Cluster) RestartParent() error {
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		if ln, err = net.Listen("tcp", c.ParentAddr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("distnet: rebinding parent %s: %w", c.ParentAddr, err)
	}
	srv := server.New(server.Config{WAL: c.opts.ParentWAL})
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case serr := <-done:
			// Serve returned before recovery finished: boot refused.
			// Leave a satisfied error slot so Close stays well-formed.
			ch := make(chan error, 1)
			ch <- nil
			c.serveErrs[0] = ch
			if serr == nil {
				serr = errors.New("distnet: parent exited during restart")
			}
			return serr
		default:
		}
		if st := srv.Stats(); st.WAL == nil || st.WAL.Recovered {
			c.Parent = srv
			c.serveErrs[0] = done
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("distnet: parent recovery never completed")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Close stops every shard, then the parent. Each shard's drain flush
// pushes everything still dirty upstream, and the drains run before
// the parent stops accepting, preserving the nothing-left-behind
// guarantee on a clean tier shutdown.
func (c *Cluster) Close() error {
	var errs []error
	stop := func(srv *server.Server, served chan error) {
		ctx, cancel := context.WithTimeout(context.Background(), c.opts.ShutdownTimeout)
		defer cancel()
		errs = append(errs, srv.Shutdown(ctx))
		if served != nil {
			errs = append(errs, <-served)
		}
	}
	for i, srv := range c.Servers {
		if srv != nil {
			stop(srv, c.serveErrs[i+1])
		}
	}
	if c.Parent != nil {
		stop(c.Parent, c.serveErrs[0])
	}
	return errors.Join(errs...)
}
