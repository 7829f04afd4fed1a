#!/usr/bin/env bash
# ci.sh — the repository's tier-1 gate, plus gofmt, the race detector,
# the unionlint static-analysis suite, and a short fuzz smoke run.
#
# The networked coordinator (internal/server) absorbs sketches on every
# connection's reader goroutine at once; every change must keep that
# path race-clean, so CI always runs the full suite under -race.
# unionlint (cmd/unionlint, see README "Static analysis"), which runs
# as a go vet tool over every package and its test files, enforces the
# invariants neither the compiler nor a test run catches: coordinated
# seeding, documented mutex guards and lock order, the %w error
# contract at the wire boundary, float comparison hygiene, and merge
# determinism (mergepure). It also checks the hot paths' measured
# allocation table (internal/allocgate), runs every Go benchmark once,
# and runs the pipeline benchmark's own build and tests (pipebench).
set -euo pipefail
cd "$(dirname "$0")"

# Pinned versions for the optional third-party analyzers. This CI runs
# offline: the tools are used when already present on PATH (or after
# CI_INSTALL_TOOLS=1 fetches them on a networked runner) and skipped
# otherwise, so the gate never depends on network access.
STATICCHECK_VERSION="${STATICCHECK_VERSION:-2024.1.1}"
GOVULNCHECK_VERSION="${GOVULNCHECK_VERSION:-v1.1.3}"

echo "== go vet =="
go vet ./...

echo "== gofmt =="
# Every Go file in the tree — pipebench/ and the analyzer testdata
# included — must be gofmt-clean; the stage lists the ones that are not.
GOFMT_OUT="$(gofmt -l .)"
if [[ -n "$GOFMT_OUT" ]]; then
    echo "$GOFMT_OUT"
    echo "ci.sh: gofmt found unformatted files; fix them with: gofmt -w <file>"
    exit 1
fi

echo "== lockorder golden suite =="
# The lock analyzer's pinned scenarios (guarded field accesses,
# cross-package ordering cycle, self-deadlock, blocking-while-locked,
# lockorder:allow escape) plus the .vetx two-run fact round-trip run
# first and by name: the whole-module verdict below is only as good as
# these fixtures.
go test -count=1 ./internal/analysis/lockorder

echo "== unionlint self-test (golden suites) =="
# The linter's own analysistest suites run before the linter is trusted
# with the tree: a broken analyzer must fail loudly here, not silently
# under-report in the unionlint pass below.
go test ./internal/analysis/...

echo "== unionlint =="
# Built into a temporary directory that the EXIT trap removes, so the
# gate installs nothing into GOPATH. unionlint runs itself as
# `go vet -vettool`, so test compilations are analyzed too, analyzer
# facts travel in go's cached .vetx files, and a failing run ends with
# a per-analyzer summary of its findings.
UNIONLINT_DIR="$(mktemp -d)"
trap 'rm -rf "$UNIONLINT_DIR"' EXIT
UNIONLINT="$UNIONLINT_DIR/unionlint"
go build -o "$UNIONLINT" ./cmd/unionlint
if ! "$UNIONLINT" ./...; then
    echo "ci.sh: unionlint found violations, summarized per analyzer above" \
         "(fix them, annotate 'unionlint:allow <analyzer> <reason>', or run" \
         "'go run ./cmd/unionlint -fix ./...' for %w rewrites)."
    echo "ci.sh: fact-driven analyzers: mergepure (// mergepure:seam for" \
         "reviewed nondeterminism), lockorder (guarded field access," \
         "deadlock/ordering/blocking-while-locked over // guards: mutexes;" \
         "reviewed waits take // lockorder:allow <reason>); see README" \
         "'Static analysis'."
    exit 1
fi

echo "== staticcheck (optional, pinned $STATICCHECK_VERSION) =="
if [[ "${CI_INSTALL_TOOLS:-0}" == "1" ]] && ! command -v staticcheck >/dev/null; then
    go install "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION"
fi
if command -v staticcheck >/dev/null; then
    staticcheck ./...
else
    echo "staticcheck not on PATH; skipping (set CI_INSTALL_TOOLS=1 on a networked runner)"
fi

echo "== govulncheck (optional, pinned $GOVULNCHECK_VERSION) =="
if [[ "${CI_INSTALL_TOOLS:-0}" == "1" ]] && ! command -v govulncheck >/dev/null; then
    go install "golang.org/x/vuln/cmd/govulncheck@$GOVULNCHECK_VERSION"
fi
if command -v govulncheck >/dev/null; then
    govulncheck ./...
else
    echo "govulncheck not on PATH; skipping (set CI_INSTALL_TOOLS=1 on a networked runner)"
fi

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== sketch conformance (all registered kinds, -race) =="
# The shared conformance suite (internal/sketch/sketchtest) run against
# every registered kind: envelope round-trips, byte-identical
# commutative/associative/idempotent merges, typed mismatch refusals.
# Already covered by the ./... run above, but named here so a failure
# in a newly registered kind is unmistakable in the CI log.
go test -race -run '^TestConformance$' -count=1 ./internal/sketch

echo "== hot-path allocation table (internal/allocgate, -race, x3) =="
# Every registered kind's Process/Merge/decode/absorb/envelope path,
# plus gt ProcessWeighted, SumSampler.Process, both WAL appends
# (wal/append frames an envelope, wal/append-frame logs a received
# frame as it is), one TCP push to a serving coordinator (server/push)
# and one more record in a pushed kmv batch (push/record, which must
# equal kmv/absorb), is driven on a fixed seeded input and its malloc
# count compared with the measured table in internal/allocgate: a rise
# fails, and so does a fall until the table is lowered. Three runs,
# so a row whose count varies from run to run fails here rather than
# in a later change.
go test -race -run '^TestHotPathAllocSummaries$' -count=3 ./internal/allocgate

echo "== benchmarks (every benchmark, one iteration) =="
# No other stage executes a benchmark function: the runs above only
# compile them. A benchmark whose fixture or measured call started
# failing (BenchmarkAbsorbSketch fails on any refused absorb) would go
# unnoticed until someone next measured with it. One iteration each
# checks that every benchmark still runs to the end; it measures
# nothing. Measure with: go test -run='^$' -bench=<name> <package>
go test -run='^$' -bench=. -benchtime=1x ./...

echo "== chaos suite (seeds 1..3) =="
# The deterministic fault-injection suites (internal/failpoint +
# internal/faultnet): every seeded fault schedule must leave the
# coordinator bit-identical to the fault-free serial run and reproduce
# the identical fault trace. Only these packages define -chaos.seed,
# so the sweep names them explicitly instead of using ./... .
CHAOS_PKGS=(./internal/server ./internal/client ./internal/distnet)
CHAOS_FAILED=()
for seed in 1 2 3; do
    echo "-- chaos.seed=$seed --"
    if ! go test -race -run 'Chaos' "${CHAOS_PKGS[@]}" -chaos.seed="$seed"; then
        CHAOS_FAILED+=("$seed")
    fi
done
if ((${#CHAOS_FAILED[@]})); then
    echo "ci.sh: chaos suite failed for seed(s): ${CHAOS_FAILED[*]}" \
         "(replay one with: go test -race -run Chaos <pkg> -chaos.seed=<seed>)"
    exit 1
fi
# A serial network run's fault trace must reproduce exactly. The
# proxy's replay of the final query once raced the coordinator's
# shutdown and failed about 1 run in 5; ten runs would catch that race
# about 9 times in 10, so it cannot quietly return.
echo "-- TestChaosNetworkRunMatchesSimulator x10 --"
go test -race -count=10 -run '^TestChaosNetworkRunMatchesSimulator$' ./internal/distnet

echo "== cluster convergence (3 shards -> parent, seeds 1..3, -race) =="
# The sharded-tier tentpole: three shards relaying into a parent must
# leave the parent bit-identical to a single coordinator that absorbed
# every site push directly — through seeded faults on both hops, and
# across shard death with ring migration. The fault-free 10^5-group
# run (TestClusterConvergesBitIdentical) is already part of the
# 'go test -race ./...' pass above; this gate names the chaos and
# shard-death legs per seed so a divergence is unmistakable.
CLUSTER_FAILED=()
for seed in 1 2 3; do
    echo "-- cluster chaos.seed=$seed --"
    if ! go test -race -run 'TestChaosClusterConvergesThroughFaultyHops|TestClusterShardDeathMigrationConverges' \
            ./internal/distnet -chaos.seed="$seed"; then
        CLUSTER_FAILED+=("$seed")
    fi
done
if ((${#CLUSTER_FAILED[@]})); then
    echo "ci.sh: cluster convergence failed for seed(s): ${CLUSTER_FAILED[*]}."
    echo "ci.sh: the ring and migration logic live in internal/cluster, the relay" \
         "flush in internal/server/relay.go, the batched/sharded push in" \
         "internal/client; replay one seed with:" \
         "go test -race -run Cluster ./internal/distnet -chaos.seed=<seed>"
    exit 1
fi

echo "== set-expression queries (3 named streams, 3 shards -> parent, seeds 1..3, -race) =="
# The set-expression acceptance leg: three named streams pushed across
# a 3-shard ring (placement varies with the seed), nested expression
# queries — (A∪B)∩C, A\B, Jaccard — routed shard- or parent-side, and
# every answer must be float64-identical to a local evaluation through
# internal/core's set operations, with the parent bit-identical to a
# single coordinator absorbing the same named pushes directly
# (internal/distnet/expr_test.go).
EXPR_FAILED=()
for seed in 1 2 3; do
    echo "-- expr chaos.seed=$seed --"
    if ! go test -race -run 'TestExprShardedCluster' \
            ./internal/distnet -chaos.seed="$seed"; then
        EXPR_FAILED+=("$seed")
    fi
done
if ((${#EXPR_FAILED[@]})); then
    echo "ci.sh: set-expression leg failed for seed(s): ${EXPR_FAILED[*]}."
    echo "ci.sh: the expression evaluator lives in internal/server/expr.go, the" \
         "QueryExpr routing in internal/client/sharded.go, the stream-carrying" \
         "relay in internal/server/relay.go; replay one seed with:" \
         "go test -race -run TestExprShardedCluster ./internal/distnet -chaos.seed=<seed>"
    exit 1
fi

echo "== WAL crash-recovery matrix (every wal/* failpoint + torn tail, seeds 1..3, -race) =="
# The durability tentpole: a coordinator killed at each wal/append,
# wal/fsync, wal/rotate, wal/snapshot, wal/dirsync, and wal/replay
# failpoint — plus a torn-tail crash — must reboot from its log and converge
# bit-identically to an uninterrupted control, in the single, relay,
# and 3-shard cluster topologies (internal/server/recovery_test.go and
# internal/distnet/recovery_test.go).
RECOVERY_FAILED=()
for seed in 1 2 3; do
    echo "-- recovery chaos.seed=$seed --"
    if ! go test -race -run 'TestWALRecovery|TestWALClusterParentCrashRecovery' \
            ./internal/server ./internal/distnet -chaos.seed="$seed"; then
        RECOVERY_FAILED+=("$seed")
    fi
done
if ((${#RECOVERY_FAILED[@]})); then
    echo "ci.sh: WAL recovery matrix failed for seed(s): ${RECOVERY_FAILED[*]}."
    echo "ci.sh: the log lives in internal/wal, the server wiring (log-before-ack," \
         "seal barrier, replay-before-accept) in internal/server/wal.go; replay one" \
         "seed with: go test -race -run TestWALRecovery ./internal/server -chaos.seed=<seed>"
    exit 1
fi

echo "== pipeline benchmark (build, vet, tests) =="
# pipebench is its own module (it pins the root through a replace
# directive), so the ./... runs above never compile it. Its tests run
# a short closed loop of every workload against the bit-identity
# oracle, so a core or server API change that breaks the benchmark
# fails here rather than when someone next runs it. Timings are not
# gated; measure with: bash pipebench/run.sh --trace 1
(cd pipebench && go vet ./... && go test -count=1 ./...)

echo "== fuzz smoke: FuzzWireDecode (10s) =="
# A short bounded run of the wire-format fuzzer: enough to catch a
# decoder regression on every CI pass without turning the gate into a
# fuzzing campaign. It walks each input twice, through one streaming
# wire.Reader (its buffer reused from frame to frame) and by looping
# DecodeFrame, and both must agree on every frame and on where and how
# the input fails.
go test -run='^$' -fuzz='^FuzzWireDecode$' -fuzztime=10s ./internal/wire

echo "== fuzz smoke: FuzzClientReadFrame (10s) =="
# Same budget for the client's reply reader, which reads through a
# wire.Reader as an exchange does, replays the wire fuzzer's shared
# corpus and must agree with wire.ReadFrame on every input.
go test -run='^$' -fuzz='^FuzzClientReadFrame$' -fuzztime=10s ./internal/client

echo "== fuzz smoke: FuzzSketchOpen (10s) =="
# And for the registry envelope opener, which fronts every decoder in
# the sketch registry: no input may panic it, every accepted input
# must re-encode to an identical envelope header, and sketch.Stage, the
# coordinator's absorb path, must accept exactly what Open accepts,
# refuse the rest with the same error class, and fold an accepted input
# into its own open byte-identically to Merge.
go test -run='^$' -fuzz='^FuzzSketchOpen$' -fuzztime=10s ./internal/sketch

echo "== fuzz smoke: FuzzWALReplay (10s) =="
# And for the WAL segment decoder and Open/Replay recovery path, which
# streams records through a wire.Reader and replays the wire fuzzer's
# shared corpus plus torn and bit-flipped segments: no bytes on disk
# may panic a boot, damage must classify as ErrDamaged at a
# deterministic clean offset, and the truncated log must accept
# appends afterwards.
go test -run='^$' -fuzz='^FuzzWALReplay$' -fuzztime=10s ./internal/wal

echo "ci.sh: all checks passed"
