#!/usr/bin/env bash
# Tier-2 verification gate: build, vet, the vblvet concurrency-invariant
# suite, and a short race-enabled pass over every set package.
#
# Usage: scripts/check.sh            (from the repo root or anywhere)
#
# CI (.github/workflows/ci.yml) runs this script as its one gate step.
set -euo pipefail

cd "$(dirname "$0")/.."

step() { printf '\n== %s\n' "$*"; }

step "go build ./..."
go build ./...

step "go build -tags obsoff ./... (probe-free build)"
go build -tags obsoff ./...

step "go build -tags nofailpoint ./... (site-free build)"
go build -tags nofailpoint ./...

step "gofmt -l . (every Go file formatted)"
test -z "$(gofmt -l .)"

step "go vet ./..."
go vet ./...

step "vblvet corpora self-test (every analyzer fires on its seeded-bad corpus)"
go test -count=1 -run 'TestAnalyzers|TestEveryAnalyzerFiresOnCorpus|TestCrossPackageContracts' ./internal/analysis

step "vblvet (concurrency-invariant static analysis, ratchet baseline)"
go run ./cmd/vblvet -timing -baseline scripts/vblvet_baseline.json ./...

step "unit tests"
go test -count=1 ./...

step "perfbench module (its own go.mod, so ./... above never compiles it)"
(cd perfbench && go vet ./... && go test -count=1 ./...)

step "race gate (short stress, every set package + arena reclamation)"
go test -race -short -count=1 ./internal/core ./internal/lazy ./internal/harris ./internal/mem ./internal/trylock ./internal/obs ./internal/obs/trace ./internal/stats ./internal/failpoint ./internal/harness ./internal/batch ./internal/shard ./internal/workload ./internal/adapt ./internal/skiplist ./internal/fomitchev ./internal/optimistic ./internal/hoh ./internal/coarse ./internal/lincheck

step "race gate (batch/scan conformance, root package)"
go test -race -short -count=1 -run 'TestBatch|TestRangeScan|TestShardSeam|TestLoad|TestCapabilityFlags|FuzzBatchVsOracle|TestChaosSkipShardSeamFaults|FuzzSkipVsOracle' .

step "race gate (skip-list tower lifecycle, ×5)"
go test -race -count=5 -run 'TestVB|TestGivenUp|TestTower' ./internal/skiplist

step "skip-list benchmark smoke (each BenchmarkVB once, so none can rot)"
go test -run '^$' -bench 'BenchmarkVB' -benchtime 1x ./internal/skiplist

step "benchmark smoke (probes + JSON report, end to end)"
go run ./cmd/synchrobench -gate smoke

step "batch amortization gate (batch surface, per-key accounting)"
go run ./cmd/synchrobench -gate batch

step "index dominance gate (log-time structures vs every list)"
go run ./cmd/synchrobench -gate index

step "chaos smoke (failpoints + retry ladder + watchdog, end to end)"
scripts/chaos_smoke.sh

step "trace smoke (flight recorder: replays, tracecat, exports, streaming)"
scripts/trace_smoke.sh

printf '\nAll checks passed.\n'
