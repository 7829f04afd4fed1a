// Command unionpush is the site side of the networked protocol: it
// reads one or more stream files (the format cmd/streamgen writes),
// sketches each as one party's stream with the shared coordination
// seed, and pushes each sketch to a unionstreamd coordinator — one
// small message per site, retried with exponential backoff if the
// coordinator is briefly unreachable. With -query it then asks the
// coordinator for the union estimates.
//
// -backend selects the sketch kind: "gt" (default, the paper's
// sampler, honoring -delta) or any other registered kind ("fm",
// "ams", "bjkst", "kmv", "hll", "window", "exact").
//
// -stream names the logical stream the pushed sketches belong to (the
// default is the coordinator's unnamed default stream), and -expr
// evaluates a set expression over named streams after pushing:
//
//	unionpush -stream ads site*.gts
//	unionpush -expr 'ads & (buys | clicks) - spam' last.gts
//
// with `|` union, `&` intersect (binds tightest), `-` difference, `~`
// Jaccard similarity (top level only), parentheses, and quoted names
// for streams with spaces or operator characters.
//
// Against a sharded tier (see unionstreamd -shards), -shards lists
// every shard's address and -ring-seed pins the shared consistent-hash
// ring: each sketch is routed to the shard that owns its merge group,
// and a query goes to the same owner. An -expr whose streams span
// shards needs -parent, the aggregation parent every shard relays
// into. If any shard permanently refuses a push, unionpush keeps
// serving the remaining files, reports each failure with the shard
// index and address, and exits non-zero.
//
// Usage:
//
//	unionpush [-addr host:7600 | -shards h1:7600,h2:7600,...]
//	          [-ring-seed 42] [-parent host:7600] [-backend gt]
//	          [-eps 0.05] [-delta 0.01] [-seed 42] [-attempts 4]
//	          [-timeout 5s] [-stream name] [-query] [-expr EXPR]
//	          stream1.gts ...
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/unionstream"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment injected, so the exit code and the
// per-shard error reporting are testable in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("unionpush", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:7600", "coordinator TCP address")
		shards   = fs.String("shards", "", "comma-separated shard coordinator addresses (overrides -addr; routes by ring)")
		ringSeed = fs.Uint64("ring-seed", 42, "consistent-hash ring seed shared with the shards (with -shards)")
		eps      = fs.Float64("eps", 0.05, "target relative error")
		delta    = fs.Float64("delta", 0.01, "target failure probability")
		seed     = fs.Uint64("seed", 42, "shared coordination seed")
		backend  = fs.String("backend", "gt", "sketch kind to push ("+strings.Join(unionstream.Backends(), ", ")+")")
		attempts = fs.Int("attempts", 4, "push attempts per site (with exponential backoff)")
		timeout  = fs.Duration("timeout", 5*time.Second, "dial timeout")
		query    = fs.Bool("query", false, "query the union estimates after pushing")
		streamNm = fs.String("stream", "", "named stream to push into (default: the coordinator's default stream)")
		exprSrc  = fs.String("expr", "", "set expression over stream names to evaluate after pushing, e.g. 'ads & (buys | clicks) - spam'")
		parent   = fs.String("parent", "", "aggregation parent address for -expr queries whose streams span shards (with -shards)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	files := fs.Args()
	if len(files) == 0 {
		fmt.Fprintln(stderr, "unionpush: need at least one stream file")
		return 2
	}
	if err := wire.ValidStreamName(*streamNm); err != nil {
		fmt.Fprintf(stderr, "unionpush: -stream: %v\n", err)
		return 2
	}
	var parsedExpr *wire.QueryExpr
	if *exprSrc != "" {
		var err error
		if parsedExpr, err = parseExpr(*exprSrc); err != nil {
			fmt.Fprintf(stderr, "unionpush: -expr: %v\n", err)
			return 2
		}
	}

	base := client.Config{DialTimeout: *timeout, Attempts: *attempts}
	opts := unionstream.Options{Epsilon: *eps, Delta: *delta, Seed: *seed}

	// One coordinator is a one-shard ring: every envelope routes to it.
	addrs := []string{*addr}
	if *shards != "" {
		addrs = strings.Split(*shards, ",")
	}
	sc, err := client.NewSharded(cluster.NewRing(len(addrs), 0, *ringSeed), addrs, base)
	if err != nil {
		fmt.Fprintf(stderr, "unionpush: %v\n", err)
		return 2
	}
	if *parent != "" {
		pcfg := base
		pcfg.Addr = *parent
		sc.SetParent(client.New(pcfg))
	}
	// unshard strips the *client.ShardError a Sharded call wraps a
	// failure in, for error lines that name the coordinator themselves
	// or, with one coordinator, need not name it at all.
	unshard := func(err error) error {
		var se *client.ShardError
		if errors.As(err, &se) {
			return se.Err
		}
		return err
	}

	// sketchFile reads one stream file into a fresh sketch of the
	// selected backend and returns its envelope. The "gt" backend goes
	// through unionstream.New so -delta is honored.
	sketchFile := func(path string) (msg []byte, items int, err error) {
		src, err := stream.ReadFile(path)
		if err != nil {
			return nil, 0, err
		}
		if *backend == "gt" {
			sk, err := unionstream.New(opts)
			if err != nil {
				return nil, 0, err
			}
			stream.Feed(src, func(it stream.Item) {
				sk.AddValued(it.Label, it.Value)
				items++
			})
			msg, err = sk.Envelope()
			return msg, items, err
		}
		b, err := unionstream.NewBackend(*backend, *eps, *seed)
		if err != nil {
			return nil, 0, err
		}
		stream.Feed(src, func(it stream.Item) {
			b.AddValued(it.Label, it.Value)
			items++
		})
		msg, err = b.MarshalBinary()
		return msg, items, err
	}

	failed := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(stderr, "unionpush: "+format+"\n", args...)
		failed++
	}
	var lastMsg []byte
	for _, path := range files {
		msg, n, err := sketchFile(path)
		if err != nil {
			fail("%s: %v", path, err)
			continue
		}
		lastMsg = msg
		shard, tries, err := sc.PushNamed(*streamNm, msg)
		err = unshard(err)
		where := addrs[0]
		if len(addrs) > 1 {
			where = fmt.Sprintf("shard %d (%s)", shard, addrs[shard])
		}
		switch {
		case errors.Is(err, client.ErrSeedMismatch):
			fail("%s: %s refused our coordination seed %d: %v", path, where, *seed, err)
		case errors.Is(err, client.ErrKindMismatch):
			fail("%s: %s is pinned to another sketch kind (ours: %s): %v", path, where, *backend, err)
		case errors.Is(err, client.ErrVersionMismatch):
			fail("%s: %s speaks a different protocol version: %v", path, where, err)
		case err != nil:
			fail("%s: %s: %v", path, where, err)
		default:
			fmt.Fprintf(stdout, "site %-24s %8d items, pushed %6d bytes (attempt %d)\n", path, n, len(msg), tries)
		}
	}

	if *query && lastMsg != nil {
		// Every file shares one backend config, so every envelope lands
		// in one merge group with one ring owner: queries go there.
		if shard, err := sc.RouteNamed(*streamNm, lastMsg); err != nil {
			fail("query routing: %v", err)
		} else {
			cl := sc.Shard(shard)
			distinct, err := cl.DistinctCount(*seed)
			if err != nil {
				fail("distinct query: %v", err)
			}
			sum, err := cl.SumDistinct(*seed)
			if err != nil {
				fail("sum query: %v", err)
			}
			if failed == 0 {
				fmt.Fprintf(stdout, "\nunion distinct estimate: %.0f\n", distinct)
				fmt.Fprintf(stdout, "union sum estimate:      %.0f\n", sum)
			}
		}
	}

	if parsedExpr != nil && lastMsg != nil {
		// The seed filter pins expression leaves to this run's
		// coordination seed, so a coordinator holding several
		// configurations of the same stream still resolves uniquely.
		eq := wire.ExprQuery{HasSeed: true, Seed: *seed, Expr: parsedExpr}
		kind, digest, _ := sketch.PeekHeader(lastMsg) // an envelope this run built
		res, err := sc.QueryExpr(eq, uint8(kind), digest)
		if err != nil {
			if len(addrs) == 1 {
				err = unshard(err)
			}
			fail("expression %s: %v", parsedExpr, err)
		} else {
			var sb strings.Builder
			renderExprResult(&sb, res, 0)
			fmt.Fprintf(stdout, "\nexpression %s:\n%s", parsedExpr, sb.String())
		}
	}

	if failed > 0 {
		fmt.Fprintf(stderr, "unionpush: %d of %d pushes failed\n", failed, len(files))
		return 1
	}
	return 0
}
