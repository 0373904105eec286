#!/usr/bin/env bash
# Benchmark smoke test: short probe-enabled runs over the paper's three
# protagonists (VBL, Lazy, Harris-Michael) and the sharded VBL façade,
# emitting one JSON array of schema-stable reports to BENCH_smoke.json.
#
# Usage: scripts/bench_smoke.sh [outfile]       (default BENCH_smoke.json)
#
# This is a smoke test, not a benchmark: it exists so CI exercises the
# full observability path (probes, latency sampling, JSON report) end to
# end and so the report schema breaks loudly, not silently. Numbers from
# CI machines are noise — see EXPERIMENTS.md for the real protocol. The
# one exception is the sharding gate at the bottom: the O(n/S)
# traversal saving is large and machine-independent enough to assert
# even here (S=16 at ≥3x the flat list on a 10^4-node range, and the
# S=1 façade within 10% of it).
set -euo pipefail

cd "$(dirname "$0")/.."

out="${1:-BENCH_smoke.json}"

go build -o /tmp/listset-synchrobench ./cmd/synchrobench

# Row layout (index: impl/shards @ range) — the gates below index into
# this order, so append new rows at the END and keep it in sync:
#   0 vbl          @ 2048
#   1 lazy         @ 2048
#   2 harris       @ 2048
#   3 vbl-sharded 8  @ 2048
#   4 vbl          @ 20000
#   5 vbl-sharded 1  @ 20000   (façade overhead: within 10% of row 4)
#   6 vbl-sharded 16 @ 20000   (O(n/S) payoff: >= 3x row 4)
#   7 vbl GC       @ 20000, 100% updates   (arena gate baseline)
#   8 vbl arena    @ 20000, 100% updates   (allocs/op <= 0.25x row 7;
#                                           throughput gated separately
#                                           via interleaved pairs below)
#   9 vbl traced   @ 2048   (flight recorder + interval streaming on:
#                            exercises -trace/-stream and the report's
#                            timeseries section end to end)
rows=(
  "-impl vbl          -range 2048  -duration 500ms -warmup 100ms -runs 1"
  "-impl lazy         -range 2048  -duration 500ms -warmup 100ms -runs 1"
  "-impl harris       -range 2048  -duration 500ms -warmup 100ms -runs 1"
  "-impl vbl-sharded  -range 2048  -duration 500ms -warmup 100ms -runs 1 -shards 8"
  "-impl vbl          -range 20000 -duration 900ms -warmup 300ms -runs 3"
  "-impl vbl-sharded  -range 20000 -duration 900ms -warmup 300ms -runs 3 -shards 1"
  "-impl vbl-sharded  -range 20000 -duration 900ms -warmup 300ms -runs 3 -shards 16"
  "-impl vbl          -range 20000 -duration 900ms -warmup 300ms -runs 3 -update-ratio 100"
  "-impl vbl          -range 20000 -duration 900ms -warmup 300ms -runs 3 -update-ratio 100 -arena"
  "-impl vbl          -range 2048  -duration 500ms -warmup 100ms -runs 1 -trace /tmp/listset-smoke.trace -stream 100ms"
)

# Wrap the per-row JSON objects into one array without external tools.
# Common flags go first so a row's own flags (e.g. -update-ratio 100)
# override them — the flag package takes the last occurrence.
{
  printf '[\n'
  for i in "${!rows[@]}"; do
    [ "$i" -gt 0 ] && printf ',\n'
    # shellcheck disable=SC2086  # rows are flag lists, word-split on purpose
    /tmp/listset-synchrobench -threads 4 -update-ratio 20 -json ${rows[$i]}
  done
  printf ']\n'
} >"$out"

# Minimal schema sanity: every report carries the schema tag, the shard
# count, and the events section the probes fill in.
for key in '"schema": "listset/bench/v1"' '"shards"' '"events"' '"latency_ns"'; do
  n=$(grep -c "$key" "$out") || true
  if [ "$n" -lt "${#rows[@]}" ]; then
    echo "bench_smoke: expected $key in every report of $out (found $n)" >&2
    exit 1
  fi
done

# Sharding gate: extract the median throughputs in file order (one
# "median" per report; the median shrugs off the odd descheduled run
# on shared CI machines) and check rows 4..6 against each other.
awk -F': ' '/"median"/ { gsub(/,/, "", $2); m[n++] = $2 + 0 }
END {
  if (n != '"${#rows[@]}"') {
    printf "bench_smoke: expected %d mean entries, found %d\n", '"${#rows[@]}"', n > "/dev/stderr"
    exit 1
  }
  flat = m[4]; facade = m[5]; sharded = m[6]
  if (sharded < 3 * flat) {
    printf "bench_smoke: vbl-sharded S=16 (%.0f ops/s) is below 3x flat vbl (%.0f ops/s) at range 20000\n", sharded, flat > "/dev/stderr"
    exit 1
  }
  rel = (facade - flat) / flat; if (rel < 0) rel = -rel
  if (rel > 0.10) {
    printf "bench_smoke: vbl-sharded S=1 (%.0f ops/s) deviates %.1f%% from flat vbl (%.0f ops/s), want <= 10%%\n", facade, 100 * rel, flat > "/dev/stderr"
    exit 1
  }
  printf "bench_smoke: sharding gate ok — S=16 %.1fx flat, S=1 within %.1f%%\n", sharded / flat, 100 * rel
}' "$out"

# Arena gate, allocation side: rows 7 (GC) and 8 (arena) run the same
# 100%-update cell, so the MemStats deltas are comparable. The arena
# must cut allocs/op to a quarter or better (measured: ~100x).
awk -F': ' '
/"allocs_per_op"/ { gsub(/,/, "", $2); a[an++] = $2 + 0 }
END {
  if (an != '"${#rows[@]}"') {
    printf "bench_smoke: expected %d allocs_per_op entries, found %d\n", '"${#rows[@]}"', an > "/dev/stderr"
    exit 1
  }
  gcAllocs = a[7]; arAllocs = a[8]
  if (gcAllocs <= 0) {
    printf "bench_smoke: GC vbl reports %.4f allocs/op on a 100%%-update run; MemStats bracketing is broken\n", gcAllocs > "/dev/stderr"
    exit 1
  }
  if (arAllocs > 0.25 * gcAllocs) {
    printf "bench_smoke: arena vbl at %.4f allocs/op exceeds 0.25x GC vbl (%.4f allocs/op)\n", arAllocs, gcAllocs > "/dev/stderr"
    exit 1
  }
  printf "bench_smoke: arena alloc gate ok — %.4f vs %.4f allocs/op (%.1fx cut)\n", arAllocs, gcAllocs, gcAllocs / arAllocs
}' "$out"

# Arena gate, throughput side: the arena must not give up more than 5%
# throughput against the GC build on the same cell. Rows 7 and 8 run
# ~3s apart, so turbo and thermal drift bias a sequential comparison —
# interleave best-of-3 GC/arena pairs instead, the same methodology the
# trace-overhead gate below uses.
acell="-impl vbl -range 20000 -threads 4 -update-ratio 100 -duration 600ms -warmup 200ms -runs 1 -quiet"
best_gc=0
best_ar=0
for _ in 1 2 3; do
  # -quiet prints "impl threads workload mean"; the mean is last.
  # shellcheck disable=SC2086
  gc=$(/tmp/listset-synchrobench $acell | awk '{ print $NF }')
  # shellcheck disable=SC2086
  ar=$(/tmp/listset-synchrobench $acell -arena | awk '{ print $NF }')
  best_gc=$(awk -v a="$best_gc" -v b="$gc" 'BEGIN { print (b > a) ? b : a }')
  best_ar=$(awk -v a="$best_ar" -v b="$ar" 'BEGIN { print (b > a) ? b : a }')
done
awk -v gc="$best_gc" -v ar="$best_ar" 'BEGIN {
  if (gc <= 0 || ar <= 0) {
    printf "bench_smoke: arena throughput gate got non-positive throughput (gc=%.0f arena=%.0f)\n", gc, ar > "/dev/stderr"
    exit 1
  }
  if (ar < 0.95 * gc) {
    printf "bench_smoke: arena vbl best %.0f ops/s is below 0.95x GC vbl (best %.0f ops/s)\n", ar, gc > "/dev/stderr"
    exit 1
  }
  printf "bench_smoke: arena throughput gate ok — %.2fx GC (best-of-3 interleaved)\n", ar / gc
}'

# Row 9 sanity: the traced row must have produced a non-empty trace
# file and a timeseries section in its report.
if [ ! -s /tmp/listset-smoke.trace ]; then
  echo "bench_smoke: traced row left no trace at /tmp/listset-smoke.trace" >&2
  exit 1
fi
if ! grep -q '"timeseries"' "$out"; then
  echo "bench_smoke: traced row report carries no timeseries section" >&2
  exit 1
fi

# Trace-overhead gate: the flight recorder's disabled cost is the nil
# branch per probe site, so a binary with tracing compiled in but no
# -trace flag must keep pace with the obsoff build (which compiles the
# whole observability layer away). The paper-grade claim is <= 2% on a
# quiet machine (DESIGN.md section 12); CI boxes are noisy, so the gate
# interleaves best-of-3 pairs and allows 15%.
go build -tags obsoff -o /tmp/listset-synchrobench-obsoff ./cmd/synchrobench
ocell="-impl vbl -range 2048 -threads 4 -update-ratio 20 -duration 400ms -warmup 100ms -runs 1 -quiet"
best_on=0
best_off=0
for _ in 1 2 3; do
  # -quiet prints "impl threads workload mean"; the mean is last.
  # shellcheck disable=SC2086
  off=$(/tmp/listset-synchrobench-obsoff $ocell | awk '{ print $NF }')
  # shellcheck disable=SC2086
  on=$(/tmp/listset-synchrobench $ocell | awk '{ print $NF }')
  best_off=$(awk -v a="$best_off" -v b="$off" 'BEGIN { print (b > a) ? b : a }')
  best_on=$(awk -v a="$best_on" -v b="$on" 'BEGIN { print (b > a) ? b : a }')
done
awk -v on="$best_on" -v off="$best_off" 'BEGIN {
  if (off <= 0 || on <= 0) {
    printf "bench_smoke: trace-overhead gate got non-positive throughput (on=%.0f off=%.0f)\n", on, off > "/dev/stderr"
    exit 1
  }
  if (on < 0.85 * off) {
    printf "bench_smoke: disabled tracing (%.0f ops/s) is below 0.85x obsoff (%.0f ops/s)\n", on, off > "/dev/stderr"
    exit 1
  }
  printf "bench_smoke: trace-overhead gate ok — disabled tracing at %.2fx obsoff\n", on / off
}'

echo "bench_smoke: wrote $out (${#rows[@]} reports)"
