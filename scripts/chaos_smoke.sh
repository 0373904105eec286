#!/usr/bin/env bash
# Chaos smoke test: short fault-injected runs proving the failure paths
# work end to end — the shipped scenario suite over the paper's three
# protagonists and the sharded façade (with the bounded-retry ladder
# and the liveness watchdog armed), then a deliberate livelock that the
# watchdog must convert into a nonzero exit naming itself.
#
# Usage: scripts/chaos_smoke.sh
#
# This is a smoke test, not a benchmark: it exists so CI exercises the
# chaos layer the way operators will (flags, not Go APIs) and so a
# regression in scenario parsing, retry escalation or watchdog firing
# breaks loudly. Throughput numbers are noise; only completion, the
# retry section's presence, and the watchdog verdicts are asserted.
set -euo pipefail

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

bin=$tmp/synchrobench
go build -o "$bin" ./cmd/synchrobench

# Shipped-suite rows: every implementation family that carries
# failpoints, under the full shipped scenario set. The watchdog is far
# above any healthy stall; it exists here to catch a real livelock.
for impl in vbl lazy harris vbl-sharded vbskip lazyskip vbskip-sharded; do
  echo "chaos_smoke: $impl under shipped scenarios"
  out=$("$bin" -impl "$impl" -threads 4 -update-ratio 40 -range 256 \
    -duration 300ms -warmup 50ms -runs 1 \
    -chaos shipped -retry-budget 4 -watchdog 30s -json)
  grep -q '"chaos"' <<<"$out" || {
    echo "chaos_smoke: $impl report lacks the chaos protocol section" >&2
    exit 1
  }
  grep -q '"retry"' <<<"$out" || {
    echo "chaos_smoke: $impl report lacks the retry section" >&2
    exit 1
  }
done

# Arena pass: the same shipped suite (which arms the epoch-advance
# failpoint) against the arena-backed lists, so fault-stretched grace
# periods and recycling churn run together under the watchdog. The
# watchdog also guards the arena's liveness: a stuck epoch must degrade
# to no-recycling, never to a stalled operation.
for impl in vbl lazy vbskip; do
  echo "chaos_smoke: $impl -arena under shipped scenarios"
  out=$("$bin" -impl "$impl" -arena -threads 4 -update-ratio 40 -range 256 \
    -duration 300ms -warmup 50ms -runs 1 \
    -chaos shipped -retry-budget 4 -watchdog 30s -json)
  grep -q '"arena": true' <<<"$out" || {
    echo "chaos_smoke: $impl -arena report does not carry arena=true" >&2
    exit 1
  }
  grep -q '"epoch-advance:fail' <<<"$out" || {
    echo "chaos_smoke: $impl -arena shipped suite does not arm the epoch-advance failpoint" >&2
    exit 1
  }
done

# Adaptive storm: a 50% validation-failure storm on the sharded VBL
# with the controller armed. The controller must absorb the storm —
# tighten the retry budget (injected failures mirror into the valfail
# counters, so the controller sees the storm exactly as a real one) —
# and the run must complete WITHOUT the watchdog firing. The whole
# control history must be auditable offline: tracecat -dump over the
# flight-recorder capture shows the controller's decisions interleaved
# with the failures that caused them. (Zero warmup so the first tick,
# where the tightening lands, falls inside the traced interval; the
# deep rings keep the one decision record from being overwritten by
# the storm's restart records.)
echo "chaos_smoke: adaptive storm (controller must tighten, watchdog must stay quiet)"
cat=$tmp/tracecat
go build -o "$cat" ./cmd/tracecat
storm_trace=$tmp/chaos-adapt.trace
out=$("$bin" -impl vbl-sharded -shards 16 -threads 4 -update-ratio 60 \
  -range 256 -duration 150ms -warmup 0s -runs 1 \
  -chaos vbl-lock-next-at:fail:0.5 -retry-budget 8 -watchdog 5s \
  -adapt -adapt-interval 20ms -trace-depth 524288 -trace "$storm_trace" -json)
grep -q '"budget_tighten": [1-9]' <<<"$out" || {
  echo "chaos_smoke: adaptive storm did not tighten the retry budget" >&2
  echo "$out" | grep -A12 '"adapt"' | head -14 >&2 || true
  exit 1
}
# Plain grep, not -q: under pipefail an early-exiting grep -q would
# kill tracecat with SIGPIPE and fail the pipeline on a found match.
"$cat" -dump "$storm_trace" | grep 'adapt_budget_tighten' >/dev/null || {
  echo "chaos_smoke: tracecat dump shows no adapt_budget_tighten decision record" >&2
  exit 1
}
rm -f "$storm_trace"

# The same storm on the sharded skip list: the skip sites mirror their
# injected failures into the valfail counters too, so the controller
# must see a level-0 lock storm on the log-time structure exactly as a
# flat-list one and tighten the budget without a watchdog fire.
echo "chaos_smoke: adaptive skip storm (controller must tighten on vbskip-sharded)"
out=$("$bin" -impl vbskip -shards 16 -threads 4 -update-ratio 60 \
  -range 256 -duration 150ms -warmup 0s -runs 1 \
  -chaos skip-lock-next-at:fail:0.5 -retry-budget 8 -watchdog 5s \
  -adapt -adapt-interval 20ms -json)
grep -q '"budget_tighten": [1-9]' <<<"$out" || {
  echo "chaos_smoke: adaptive skip storm did not tighten the retry budget" >&2
  echo "$out" | grep -A12 '"adapt"' | head -14 >&2 || true
  exit 1
}

# Watchdog gate: a probability-1 validation failure livelocks every
# update; the run must FAIL, quickly, with an error naming the
# watchdog. (|| true captures the exit code under set -e.)
echo "chaos_smoke: seeded livelock (watchdog must fire)"
rc=0
err=$("$bin" -impl vbl -threads 2 -update-ratio 100 -range 64 \
  -duration 10s -warmup 0s -runs 1 \
  -chaos vbl-lock-next-at:fail -retry-budget 2 -watchdog 2s \
  2>&1 >/dev/null) || rc=$?
if [ "$rc" -eq 0 ]; then
  echo "chaos_smoke: seeded livelock exited 0; watchdog did not fire" >&2
  exit 1
fi
grep -qi 'watchdog' <<<"$err" || {
  echo "chaos_smoke: livelock failed without naming the watchdog:" >&2
  head -5 <<<"$err" >&2
  exit 1
}

echo "chaos_smoke: all chaos gates passed"
