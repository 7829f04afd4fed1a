// Package distnet runs a distsim.Protocol over a real network: the
// referee becomes a unionstreamd coordinator on a loopback TCP socket,
// and distsim.RunSites — the simulator's own site loop — hands each
// site's one-shot envelope to a client that pushes it; the answers
// come back as wire queries. The coordinator merges by registered
// sketch kind, so every distsim.KindProtocol (GT, Exact, or any
// other registered kind) runs unchanged; protocols with private
// message formats (Uncoordinated's local-estimate pairs) are
// in-process only.
// Because every sketch in this repository merges order-independently,
// the network run's estimates are identical to the in-process
// simulator's on the same sources — the equivalence the end-to-end
// tests assert byte-for-byte — while the exported
// distsim.ByteAccountant keeps the communication accounting
// comparable between the two transports.
package distnet

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/client"
	"repro/internal/distsim"
	"repro/internal/server"

	// Register every sketch kind so the in-process coordinator can
	// open whatever envelopes the protocol's sites emit.
	_ "repro/internal/sketch/kinds"
	"repro/internal/stream"
	"repro/internal/wire"
)

// Options tunes a network run. The zero value is fine for tests.
type Options struct {
	// Attempts and backoff shape per-site push retries; zero values
	// take the client defaults.
	Attempts    int
	BackoffBase time.Duration
	// IOTimeout bounds each client round trip; zero takes the client
	// default. Chaos runs shrink it so swallowed acks fail fast.
	IOTimeout time.Duration
	// ShutdownTimeout bounds the coordinator drain (default 10s).
	ShutdownTimeout time.Duration
	// Intercept, when set, rewrites the address every client dials: it
	// receives the coordinator's real listen address and returns the
	// address to use instead, plus the closer of whatever now sits in
	// between. The chaos suite uses it to route all site and query
	// traffic through a faultnet proxy. The closer runs before the
	// coordinator shuts down, so traffic still in flight inside the
	// interceptor (a proxy replaying the last query) reaches a live
	// coordinator.
	Intercept func(serverAddr string) (dialAddr string, closer io.Closer, err error)
}

// Run executes the protocol over loopback TCP: it starts a
// coordinator daemon on an ephemeral port, runs every site against its
// source (in parallel goroutines when concurrent is true), pushes each
// site's message over a real socket, queries the estimates, and shuts
// the daemon down. The returned Result has the same shape and — for
// this repository's order-independent protocols — the same values as
// distsim.Run on the same sources.
func Run(p distsim.Protocol, sources []stream.Source, concurrent bool) (*distsim.Result, error) {
	return RunOptions(p, sources, concurrent, Options{})
}

// RunOptions is Run with explicit tuning.
func RunOptions(p distsim.Protocol, sources []stream.Source, concurrent bool, opts Options) (*distsim.Result, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("distnet: no sources")
	}
	if opts.ShutdownTimeout <= 0 {
		opts.ShutdownTimeout = 10 * time.Second
	}

	srv := server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("distnet: listen: %w", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), opts.ShutdownTimeout)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveErr
	}()
	addr := ln.Addr().String()
	if opts.Intercept != nil {
		var closer io.Closer
		if addr, closer, err = opts.Intercept(addr); err != nil {
			return nil, fmt.Errorf("distnet: intercept: %w", err)
		}
		defer closer.Close() // deferred after the shutdown, so it runs first
	}

	// Each site pushes from its own client, so a fleet of sites does
	// not back off in lockstep.
	acct := distsim.NewByteAccountant()
	items, err := distsim.RunSites(p, sources, concurrent, func(site int, msg []byte) error {
		cl := client.New(client.Config{
			Addr:        addr,
			Attempts:    opts.Attempts,
			BackoffBase: opts.BackoffBase,
			IOTimeout:   opts.IOTimeout,
			JitterSeed:  int64(site) + 1,
		})
		if _, err := cl.Push(msg); err != nil {
			return fmt.Errorf("site %d push: %w", site, err)
		}
		acct.Record(len(msg))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("distnet: %w", err)
	}

	// Every push was acked, so every message is absorbed: query.
	cl := client.New(client.Config{
		Addr:        addr,
		Attempts:    opts.Attempts,
		BackoffBase: opts.BackoffBase,
		IOTimeout:   opts.IOTimeout,
		JitterSeed:  int64(len(sources)) + 1,
	})
	distinct, err := cl.Query(wire.Query{Kind: wire.QueryDistinct})
	if err != nil {
		return nil, fmt.Errorf("distnet: distinct query: %w", err)
	}
	sum, err := cl.Query(wire.Query{Kind: wire.QuerySum})
	if err != nil {
		return nil, fmt.Errorf("distnet: sum query: %w", err)
	}

	res := &distsim.Result{
		DistinctEstimate: distinct,
		SumEstimate:      sum,
		Stats: distsim.Stats{
			Sites:          len(sources),
			ItemsProcessed: items,
		},
	}
	acct.FillStats(&res.Stats)
	return res, nil
}
