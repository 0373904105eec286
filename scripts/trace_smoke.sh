#!/usr/bin/env bash
# Trace smoke test: the flight recorder's three consumers end to end —
# the deterministic Figure 2/3 failpoint replays reconstructed into the
# paper's accepted schedules (capture → history → linearizability and
# capture → schedule.Lift), the tracecat offline auditor over the same
# captures, and a live synchrobench run exporting both the compact
# binary and the Chrome trace-event JSON plus interval streaming.
#
# Usage: scripts/trace_smoke.sh
#
# This is a smoke test: throughput is noise, only the round trips are
# asserted. The replay leg is the strong one — it machine-checks that a
# failpoint-steered Figure 2 execution lifts to a VBL-accepted,
# Lazy-rejected schedule, which is the paper's separation claim.
set -euo pipefail

cd "$(dirname "$0")/.."

tmp=$(mktemp -d /tmp/listset-trace.XXXXXX)
trap 'rm -rf "$tmp"' EXIT

bin=$tmp/synchrobench
go build -o "$bin" ./cmd/synchrobench
cat=$tmp/tracecat
go build -o "$cat" ./cmd/tracecat

# Leg 1: deterministic replays. figures -fig replay runs Figure 2/3
# under the tracer and already asserts the full round trip (history
# linearizable, schedule VBL-accepted, Figure 2 Lazy-rejected); here we
# additionally keep the captures for the offline auditor.
echo "trace_smoke: figure replays (capture -> lincheck -> schedule.Lift)"
go run ./cmd/figures -fig replay -traceout "$tmp"

# Leg 2: the offline auditor re-derives linearizability from the
# serialized captures alone — no shared state with the replay process.
echo "trace_smoke: tracecat audit of the replay captures"
"$cat" -lincheck -initial 1 "$tmp/figure2.trace"
"$cat" -lincheck -initial 2,3,4 "$tmp/figure3.trace"

# Leg 3: live capture under chaos. A short fault-injected run with the
# recorder attached must produce a decodable binary capture whose
# summary tracecat can print (wraparound and drops are fine here — the
# ring is sized small on purpose).
echo "trace_smoke: live capture under shipped chaos scenarios"
"$bin" -impl vbl -threads 4 -update-ratio 40 -range 256 \
  -duration 300ms -warmup 50ms -runs 1 \
  -chaos shipped -retry-budget 4 -watchdog 30s \
  -trace "$tmp/bench.trace" >/dev/null
out=$("$cat" "$tmp/bench.trace")
grep -q 'records' <<<"$out" || {
  echo "trace_smoke: tracecat summary lacks a records line:" >&2
  head -5 <<<"$out" >&2
  exit 1
}

# Leg 3b: the same live-capture round trip over the skip list, whose
# probe stream carries the skip-specific events (tower heights, index
# link retries, level-0 restarts) — the recorder and auditor must
# handle the log-time structure's event mix exactly like a flat list's.
echo "trace_smoke: live skip-list capture under shipped chaos scenarios"
"$bin" -impl vbskip -threads 4 -update-ratio 40 -range 4096 \
  -duration 300ms -warmup 50ms -runs 1 \
  -chaos shipped -retry-budget 4 -watchdog 30s \
  -trace "$tmp/skip.trace" >/dev/null
out=$("$cat" -dump "$tmp/skip.trace")
grep -q 'op_' <<<"$out" || {
  echo "trace_smoke: skip-list dump shows no op spans:" >&2
  head -5 <<<"$out" >&2
  exit 1
}

# Leg 4: Chrome trace-event export. A .json suffix selects the Chrome
# format; the file must be valid JSON with at least one complete span.
echo "trace_smoke: Chrome trace-event export"
"$bin" -impl vbl -threads 2 -update-ratio 20 -range 256 \
  -duration 200ms -warmup 50ms -runs 1 \
  -trace "$tmp/bench.json" >/dev/null
grep -q '"ph":"X"' "$tmp/bench.json" || {
  echo "trace_smoke: Chrome export has no complete spans" >&2
  exit 1
}
if command -v python3 >/dev/null 2>&1; then
  python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$tmp/bench.json" || {
    echo "trace_smoke: Chrome export is not valid JSON" >&2
    exit 1
  }
fi

# Leg 5: interval streaming. Windowed rows go to stdout as JSONL; each
# row carries the stream schema tag and the per-stripe heatmap.
echo "trace_smoke: interval metrics streaming"
rows=$("$bin" -impl vbl -threads 2 -update-ratio 20 -range 256 \
  -duration 300ms -warmup 50ms -runs 1 -stream 100ms | grep 'listset/stream/v1' || true)
if [ -z "$rows" ]; then
  echo "trace_smoke: streaming run emitted no schema-tagged rows" >&2
  exit 1
fi
grep -q '"stripes"' <<<"$rows" || {
  echo "trace_smoke: stream rows lack the per-stripe heatmap" >&2
  exit 1
}

echo "trace_smoke: all trace gates passed"
