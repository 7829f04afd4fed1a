// Command unionstreamd runs the paper's referee as a network daemon:
// a coordinator that accepts one-shot sketch envelopes of any
// registered kind from distributed sites over TCP, merges them into
// per-(kind, configuration) groups, and answers union queries
// (distinct count, duplicate-insensitive sum, predicate counts) plus
// a JSON /statsz introspection endpoint.
//
// Usage:
//
//	unionstreamd [-addr :7600] [-statsz :7601]
//	             [-require-seed N] [-require-kind gt]
//	             [-max-frame BYTES] [-quiet]
//	             [-relay-to host:7600] [-relay-interval 1s] [-relay-after N]
//	             [-shard I -shards N] [-ring-seed 42]
//	             [-wal-dir DIR] [-wal-fsync always|never]
//	             [-wal-segment-bytes N] [-snapshot-every 1m]
//
// With -relay-to the daemon is a mid-tier shard: it keeps absorbing
// site pushes, and every -relay-interval (or as soon as any group
// accumulates -relay-after absorbs) it pushes each dirty merge
// group's merged envelope to the parent coordinator as an ordinary
// site push. -shard/-shards/-ring-seed declare the daemon's position
// on the cluster's consistent-hash ring, surfaced per group in
// /statsz so a misrouting fleet is visible. See README "Running a
// cluster".
//
// With -wal-dir the daemon is durable: every accepted envelope is
// appended to a segmented write-ahead log before it is acked, the
// merged group state is snapshotted every -snapshot-every (truncating
// the replayed prefix of the log), and a rebooted daemon replays
// snapshot plus log before its listener accepts — so a crash between
// ack and snapshot loses nothing. -wal-fsync never trades the
// per-record fsync for speed at the cost of the OS page-cache window.
// See README "Durability".
//
// The daemon drains gracefully on SIGINT/SIGTERM: in-flight messages
// finish absorbing and are acked — and a relay pushes everything
// still dirty upstream — before the process exits. Push sketches at
// it with cmd/unionpush and query with the same tool.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/wal"

	// Register every sketch kind the daemon can absorb.
	_ "repro/internal/sketch/kinds"
)

func main() {
	var (
		addr        = flag.String("addr", ":7600", "TCP listen address for the sketch protocol")
		statsz      = flag.String("statsz", "", "HTTP listen address for /statsz (empty = disabled)")
		maxFrame    = flag.Uint("max-frame", 0, "maximum accepted frame payload in bytes (0 = 16 MiB)")
		requireSeed = flag.Uint64("require-seed", 0, "reject sketches whose coordination seed differs (unset = any seed forms its own group)")
		requireKind = flag.String("require-kind", "", "reject sketches of any other kind (empty = accept all registered kinds)")
		drain       = flag.Duration("drain", 10*time.Second, "graceful shutdown drain budget")
		quiet       = flag.Bool("quiet", false, "suppress per-event logging")

		relayTo       = flag.String("relay-to", "", "parent coordinator address to relay merged groups to (enables relay mode)")
		relayInterval = flag.Duration("relay-interval", time.Second, "relay flush period (with -relay-to)")
		relayAfter    = flag.Int64("relay-after", 0, "also flush once any group accumulates this many absorbs (0 = timer only)")
		shard         = flag.Int("shard", 0, "this coordinator's shard index on the cluster ring (with -shards)")
		shards        = flag.Int("shards", 0, "total shard count on the cluster ring (0 = not clustered)")
		ringSeed      = flag.Uint64("ring-seed", 42, "consistent-hash ring seed shared by shards and pushers (with -shards)")

		walDir      = flag.String("wal-dir", "", "write-ahead-log directory for crash durability (empty = not durable)")
		walFsync    = flag.String("wal-fsync", "always", "WAL fsync policy: always (fsync per record) or never (with -wal-dir)")
		walSegBytes = flag.Int64("wal-segment-bytes", 0, "rotate WAL segments at this many bytes (0 = 4 MiB)")
		snapEvery   = flag.Duration("snapshot-every", time.Minute, "merged-state snapshot period; snapshots truncate the replayed WAL (with -wal-dir)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "unionstreamd: unexpected arguments", flag.Args())
		os.Exit(2)
	}
	if *shards > 0 && (*shard < 0 || *shard >= *shards) {
		fmt.Fprintf(os.Stderr, "unionstreamd: -shard %d outside [0,%d)\n", *shard, *shards)
		os.Exit(2)
	}
	if *maxFrame > math.MaxUint32 {
		fmt.Fprintf(os.Stderr, "unionstreamd: -max-frame %d outside [0,%d]\n", *maxFrame, uint32(math.MaxUint32))
		os.Exit(2)
	}

	logf := log.Printf
	if *quiet {
		logf = nil
	}
	cfg := server.Config{
		Addr:        *addr,
		MaxPayload:  uint32(*maxFrame),
		RequireKind: *requireKind,
		Logf:        logf,
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "require-seed" {
			cfg.RequireSeed = requireSeed
		}
	})
	if *relayTo != "" {
		cfg.Relay = &server.RelayConfig{
			Upstream:      *relayTo,
			FlushInterval: *relayInterval,
			FlushAfter:    *relayAfter,
		}
	}
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*walFsync)
		if err != nil {
			fmt.Fprintf(os.Stderr, "unionstreamd: %v\n", err)
			os.Exit(2)
		}
		cfg.WAL = &server.WALConfig{
			Dir:           *walDir,
			SegmentBytes:  *walSegBytes,
			Sync:          policy,
			SnapshotEvery: *snapEvery,
		}
	}
	if *shards > 0 {
		cfg.Cluster = &server.ClusterInfo{Shard: *shard, Ring: cluster.NewRing(*shards, 0, *ringSeed)}
	}
	srv := server.New(cfg)

	if *statsz != "" {
		mux := http.NewServeMux()
		mux.Handle("/statsz", srv.StatszHandler())
		hs := &http.Server{Addr: *statsz, Handler: mux}
		go func() {
			if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("unionstreamd: statsz: %v", err)
			}
		}()
		defer hs.Close()
		if !*quiet {
			log.Printf("unionstreamd: statsz on http://%s/statsz", *statsz)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()

	select {
	case err := <-serveErr:
		if err != nil {
			log.Fatalf("unionstreamd: %v", err)
		}
	case <-ctx.Done():
		stop()
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(dctx); err != nil {
			log.Printf("unionstreamd: drain incomplete: %v", err)
			os.Exit(1)
		}
		<-serveErr
	}
}
