#!/usr/bin/env bash
# Batch amortization gate: short runs of the VBL list's batch surface at
# a real range (2*10^4 keys, 100% updates), emitting one JSON array of
# schema-stable reports to BENCH_batch.json.
#
# Usage: scripts/bench_batch.sh [outfile]       (default BENCH_batch.json)
#
# Like bench_smoke.sh this is a gate, not a benchmark — numbers from CI
# machines are noise (see EXPERIMENTS.md for the real protocol). But the
# batch surface's claim is structural and machine-independent enough to
# assert even here: a batch of k keys walks the list ONCE instead of k
# times, so per-KEY throughput (the harness accounts batched cells per
# key, not per call) must grow with k. The two gates:
#
#   1. amortization: batch=64 per-key throughput >= 3x batch=1 on VBL
#      at range 20000 (measured: ~10-15x; 3x leaves noise headroom);
#   2. no batch tax: batch=1 — every key through the batch entry points
#      in a one-key window — within 10% of the plain per-key loop, so
#      the batch plumbing itself costs nothing.
set -euo pipefail

cd "$(dirname "$0")/.."

out="${1:-BENCH_batch.json}"

go build -o /tmp/listset-synchrobench ./cmd/synchrobench

# Row layout (index: impl @ batch size) — the gates below index into
# this order, so append new rows at the END and keep it in sync:
#   0 vbl   batch 0   (plain per-key loop: the no-batch-tax baseline)
#   1 vbl   batch 1   (single-key batches through the batch surface)
#   2 vbl   batch 64  (the amortized cell the >=3x gate reads)
#   3 vbl   batch 0, 50% updates + 10% scans of width 200   (exercises
#                        RangeScan + scan accounting end to end)
#   4 vbl   batch 8, zipf theta 0.9   (skewed batches: duplicate-heavy
#                                      after dedup, no gate, schema only)
rows=(
  "-impl vbl -batch 0"
  "-impl vbl -batch 1"
  "-impl vbl -batch 64"
  "-impl vbl -batch 0  -update-ratio 50 -scan 10 -scan-width 200"
  "-impl vbl -batch 8  -dist zipf -theta 0.9"
)

# Common flags first so a row's own flags override them (the flag
# package takes the last occurrence).
{
  printf '[\n'
  for i in "${!rows[@]}"; do
    [ "$i" -gt 0 ] && printf ',\n'
    # shellcheck disable=SC2086  # rows are flag lists, word-split on purpose
    /tmp/listset-synchrobench -threads 4 -range 20000 -update-ratio 100 \
      -duration 900ms -warmup 300ms -runs 3 -json ${rows[$i]}
  done
  printf ']\n'
} >"$out"

# Schema sanity: every report carries the schema tag and events; the
# batched rows must record their batch size, the scan row its scans.
for key in '"schema": "listset/bench/v1"' '"events"'; do
  n=$(grep -c "$key" "$out") || true
  if [ "$n" -lt "${#rows[@]}" ]; then
    echo "bench_batch: expected $key in every report of $out (found $n)" >&2
    exit 1
  fi
done
if ! grep -q '"batch_size": 64' "$out"; then
  echo "bench_batch: no report carries batch_size 64" >&2
  exit 1
fi
if ! grep -q '"scans"' "$out"; then
  echo "bench_batch: scan row recorded no scans" >&2
  exit 1
fi

# Amortization gates over the median per-key throughputs (one "median"
# per report, in file order; the median shrugs off the odd descheduled
# run on shared CI machines).
awk -F': ' '/"median"/ { gsub(/,/, "", $2); m[n++] = $2 + 0 }
END {
  if (n != '"${#rows[@]}"') {
    printf "bench_batch: expected %d median entries, found %d\n", '"${#rows[@]}"', n > "/dev/stderr"
    exit 1
  }
  plain = m[0]; one = m[1]; batched = m[2]
  if (batched < 3 * one) {
    printf "bench_batch: batch=64 (%.0f keys/s) is below 3x batch=1 (%.0f keys/s) on vbl at range 20000\n", batched, one > "/dev/stderr"
    exit 1
  }
  rel = (one - plain) / plain; if (rel < 0) rel = -rel
  if (rel > 0.10) {
    printf "bench_batch: batch=1 (%.0f keys/s) deviates %.1f%% from the plain loop (%.0f keys/s), want <= 10%%\n", one, 100 * rel, plain > "/dev/stderr"
    exit 1
  }
  printf "bench_batch: amortization gate ok — batch=64 at %.1fx batch=1, batch=1 within %.1f%% of plain\n", batched / one, 100 * rel
}' "$out"

echo "bench_batch: wrote $out (${#rows[@]} reports)"
