#!/usr/bin/env bash
# Adaptive contention-control gate: static vs adaptive sharded VBL under
# skewed load, emitting one JSON array of schema-stable reports to
# BENCH_adapt.json.
#
# Usage: scripts/bench_adapt.sh [outfile]       (default BENCH_adapt.json)
#
# Like the other bench gates this asserts structure, not speed — CI
# numbers are noise (EXPERIMENTS.md has the real protocol). The
# machine-independent claim is the SEAM cell: a hot window parked at the
# key-space midpoint sits at the deep end of shard 7's list, so every
# hot op pays a half-shard traversal that no lock tuning can remove.
# The controller's rebalance splits the hot window across fresh shard
# boundaries, shortening those traversals structurally — a win that
# survives any core count. Gates:
#
#   1. seam skew: adaptive median >= 1.3x static median OR adaptive
#      p999(contains) <= 0.7x static p999 on sharded VBL, 50% updates,
#      range 2*10^4 (measured: ~2.3x throughput on a 1-CPU container);
#   2. uniform tax: adaptive within 5% of static under uniform keys —
#      the controller must be a bystander when there is nothing to fix;
#   3. presence: adaptive rows carry an "adapt" section and the skewed
#      ones record at least one rebalance.
#
# The zipf theta=0.99 pair rides along WITHOUT a ratio gate: zipf's hot
# keys are the smallest keys, which sit at shard 0's list HEAD, so the
# static partition is already near-optimal for traversal length — and
# on uniprocessor CI containers trylock parks ceilings behind
# runtime.Gosched(), removing the backoff lever too. A cost-weighted
# analysis puts the best achievable split at ~1.2x there; gating on it
# would institutionalize a flaky margin. The rows stay in the artifact
# so the numbers are auditable.
set -euo pipefail

cd "$(dirname "$0")/.."

out="${1:-BENCH_adapt.json}"

go build -o /tmp/listset-synchrobench ./cmd/synchrobench

# Row layout (index: workload x controller) — the gates below index
# into this order, so append new rows at the END:
#   0 uniform            static
#   1 uniform            adaptive
#   2 seam hotspot       static     (hot 64-key window at the midpoint)
#   3 seam hotspot       adaptive   (the 1.3x / 0.7x gate pair is 2,3)
#   4 zipf theta=0.99    static     (informational, no ratio gate)
#   5 zipf theta=0.99    adaptive
rows=(
  ""
  "-adapt"
  "-dist hotspot -hot-lo 9968 -hot-width 64"
  "-dist hotspot -hot-lo 9968 -hot-width 64 -adapt"
  "-dist zipf -theta 0.99"
  "-dist zipf -theta 0.99 -adapt"
)

{
  printf '[\n'
  for i in "${!rows[@]}"; do
    [ "$i" -gt 0 ] && printf ',\n'
    # shellcheck disable=SC2086  # rows are flag lists, word-split on purpose
    /tmp/listset-synchrobench -impl vbl-sharded -shards 16 -threads 4 \
      -range 20000 -update-ratio 50 -retry-budget 32 -sample-every 64 \
      -duration 700ms -warmup 200ms -runs 3 -json ${rows[$i]}
  done
  printf ']\n'
} >"$out"

# Schema sanity: every report tagged and counted; the adaptive rows
# must surface the controller tally and the skewed ones a rebalance.
for key in '"schema": "listset/bench/v1"' '"events"'; do
  n=$(grep -c "$key" "$out") || true
  if [ "$n" -lt "${#rows[@]}" ]; then
    echo "bench_adapt: expected $key in every report of $out (found $n)" >&2
    exit 1
  fi
done
if [ "$(grep -c '"adapt"' "$out")" -lt 3 ]; then
  echo "bench_adapt: adaptive rows are missing the adapt section" >&2
  exit 1
fi
if ! grep -q '"rebalances": [1-9]' "$out"; then
  echo "bench_adapt: no adaptive row recorded a rebalance under skew" >&2
  exit 1
fi

# Ratio gates over medians and contains-p999s (one of each per report,
# in file order; medians shrug off the odd descheduled CI run).
awk -F': ' '
/"median"/ { gsub(/,/, "", $2); m[nm++] = $2 + 0 }
/"contains"/ { incontains = 1 }
incontains && /"p999"/ { gsub(/,/, "", $2); p[np++] = $2 + 0; incontains = 0 }
END {
  if (nm != '"${#rows[@]}"' || np != '"${#rows[@]}"') {
    printf "bench_adapt: expected %d median and p999 entries, found %d/%d\n", '"${#rows[@]}"', nm, np > "/dev/stderr"
    exit 1
  }
  su = m[0]; au = m[1]; ss = m[2]; as = m[3]
  tput_ok = (as >= 1.3 * ss)
  p999_ok = (p[2] > 0 && p[3] <= 0.7 * p[2])
  if (!tput_ok && !p999_ok) {
    printf "bench_adapt: seam gate failed — adaptive %.0f ops/s vs static %.0f (%.2fx, want >=1.3x) AND p999 %d ns vs %d (want <=0.7x)\n", as, ss, as / ss, p[3], p[2] > "/dev/stderr"
    exit 1
  }
  rel = (su - au) / su; if (rel < 0) rel = -rel
  if (rel > 0.05) {
    printf "bench_adapt: uniform tax %.1f%% (adaptive %.0f vs static %.0f ops/s), want <= 5%%\n", 100 * rel, au, su > "/dev/stderr"
    exit 1
  }
  printf "bench_adapt: gates ok — seam adaptive %.2fx static (p999 %d vs %d ns), uniform tax %.1f%%\n", as / ss, p[3], p[2], 100 * rel
}' "$out"

echo "bench_adapt: wrote $out (${#rows[@]} reports)"
