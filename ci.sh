#!/usr/bin/env bash
# ci.sh — the tier-2 gate. Everything here must pass before a change lands:
#
#   1. go build      — the tree compiles;
#   2. gofmt         — every file is canonically formatted;
#   3. go vet        — stock static analysis;
#   4. exdralint     — project-specific federation-runtime invariants
#                      (see DESIGN.md, "Static analysis"); run through its
#                      -json output piped into lintfmt, so the
#                      machine-readable stream is exercised on every CI run
#                      while the log keeps the "file:line: rule: msg" form;
#   5. go test -race -count=1 — the full test suite under the race
#                      detector, never from cache: connection teardown,
#                      redial, retry, restart/replay and prober
#                      interleavings are exactly where data races hide, and
#                      a cached pass says nothing about them;
#   6. kernel benchmarks — the internal/matrix benchmarks run one iteration
#                      each, so every kernel benchmark compiles and executes
#                      on every run instead of rotting (timings are not
#                      gated);
#   7. fuzz smoke     — the Go-native fuzz targets each run for 10s: the
#                      two one-batch wire decode paths and the multi-tag
#                      stream decoder (forged lengths, truncation,
#                      corruption and torn interleaves of chunk frames must
#                      error, never panic or over-allocate) and the raw CSV
#                      reader, which must
#                      fail where the old ReadAll reader fails and
#                      otherwise parse to the frame that oracle builds,
#                      bit for bit;
#   8. /metrics smoke — a real fedworker process is spawned with
#                      -metrics-addr and its endpoint is scraped once;
#   9. exdrad smoke   — the standing coordinator daemon is spawned over two
#                      real fedworker processes; two concurrent sessions are
#                      opened over its HTTP API, each trains a seeded LM,
#                      and the daemon's /metrics must export the serve.*
#                      series (sessions, pool churn) while a worker exports
#                      the worker.conns gauge;
#  10. bench smoke    — expbench -smoke measures the BENCH_smoke.json rows
#                      (FedLAN transfer + LM) into a temp file and -compare
#                      gates the fresh encode+decode phase seconds against
#                      the committed snapshot at 2x, so a serialization
#                      regression fails CI before it lands. The committed
#                      snapshot moves only by explicit commit;
#  11. pipeline gate  — expbench -exp pipeline measures the
#                      BENCH_pipeline.json rows (a depth-8 burst of GETs at
#                      a 35 ms RTT, window 1 vs window 8) into a temp file
#                      and -check-pipeline requires the pipelined burst
#                      within 3.5 RTTs and at least 2x faster than window 1,
#                      so pipelining can never silently regress to
#                      serialized exchanges.
#
# No step writes to a tracked file.
set -euo pipefail
cd "$(dirname "$0")"

go build ./...
unformatted="$(gofmt -l .)"
[ -z "$unformatted" ] || { echo "ci.sh: gofmt needed:" >&2; echo "$unformatted" >&2; exit 1; }
go vet ./...
go run ./cmd/exdralint -json ./... | go run ./cmd/lintfmt
go test -race -count=1 ./...

# Kernel benchmarks: one iteration each, so they keep compiling and running.
go test -run '^$' -bench . -benchtime 1x ./internal/matrix
echo "ci.sh: kernel benchmarks ran"

# Fuzz smoke: 10 seconds per target. A finding lands in the package's
# testdata/fuzz/ and fails the run.
go test -run='^$' -fuzz='^FuzzWireEnvelope$' -fuzztime=10s ./internal/fedrpc/
go test -run='^$' -fuzz='^FuzzWireReply$' -fuzztime=10s ./internal/fedrpc/
go test -run='^$' -fuzz='^FuzzWireStream$' -fuzztime=10s ./internal/fedrpc/
go test -run='^$' -fuzz='^FuzzReadCSV$' -fuzztime=10s ./internal/frame/
echo "ci.sh: fuzz smoke passed"

# /metrics smoke test: boot a real worker with the endpoint enabled, scrape
# it, and check the process gauges are served.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/fedworker" ./cmd/fedworker
"$tmp/fedworker" -addr 127.0.0.1:0 -data "$tmp" -metrics-addr 127.0.0.1:0 >"$tmp/log" 2>&1 &
worker_pid=$!
trap 'kill "$worker_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
metrics_url=""
for _ in $(seq 1 50); do
  metrics_url="$(sed -n 's#^fedworker: metrics on \(http://.*/metrics\)$#\1#p' "$tmp/log")"
  [ -n "$metrics_url" ] && break
  sleep 0.1
done
[ -n "$metrics_url" ] || { echo "ci.sh: fedworker never announced its metrics endpoint" >&2; cat "$tmp/log" >&2; exit 1; }
scrape="$(curl -fsS "$metrics_url")" || { echo "ci.sh: scraping $metrics_url failed" >&2; exit 1; }
echo "$scrape" | grep -q 'process.uptime_seconds' || { echo "ci.sh: /metrics is missing process.uptime_seconds" >&2; exit 1; }
echo "$scrape" | grep -q 'process.goroutines' || { echo "ci.sh: /metrics is missing process.goroutines" >&2; exit 1; }
kill "$worker_pid"
echo "ci.sh: /metrics smoke test passed ($metrics_url)"

# exdrad smoke test: a standing coordinator daemon over two real workers,
# driven through its HTTP session API by two concurrent sessions. The
# daemon's /metrics must export the serve.* series, and a worker capped
# with -max-conns must export its worker.conns gauge.
go build -o "$tmp/exdrad" ./cmd/exdrad
wait_line() { # wait_line LOGFILE SED_PATTERN → prints the first capture
  local out=""
  for _ in $(seq 1 50); do
    out="$(sed -n "$2" "$1")"
    [ -n "$out" ] && break
    sleep 0.1
  done
  [ -n "$out" ] || { echo "ci.sh: timed out waiting for $2 in $1" >&2; cat "$1" >&2; exit 1; }
  echo "$out"
}
"$tmp/fedworker" -addr 127.0.0.1:0 -data "$tmp" -max-conns 16 -metrics-addr 127.0.0.1:0 >"$tmp/w1.log" 2>&1 &
w1_pid=$!
"$tmp/fedworker" -addr 127.0.0.1:0 -data "$tmp" -max-conns 16 >"$tmp/w2.log" 2>&1 &
w2_pid=$!
trap 'kill "$w1_pid" "$w2_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
w1_addr="$(wait_line "$tmp/w1.log" 's#^fedworker: listening on \([0-9.:]*\) .*#\1#p')"
w2_addr="$(wait_line "$tmp/w2.log" 's#^fedworker: listening on \([0-9.:]*\) .*#\1#p')"
w1_metrics="$(wait_line "$tmp/w1.log" 's#^fedworker: metrics on \(http://.*/metrics\)$#\1#p')"
"$tmp/exdrad" -addr 127.0.0.1:0 -workers "$w1_addr,$w2_addr" -metrics-addr 127.0.0.1:0 >"$tmp/d.log" 2>&1 &
exdrad_pid=$!
trap 'kill "$exdrad_pid" "$w1_pid" "$w2_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
api="$(wait_line "$tmp/d.log" 's#^exdrad: session API on \(http://.*\)$#\1#p')"
d_metrics="$(wait_line "$tmp/d.log" 's#^exdrad: metrics on \(http://.*/metrics\)$#\1#p')"
s1="$(curl -fsS -X POST "$api/v1/sessions" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
s2="$(curl -fsS -X POST "$api/v1/sessions" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$s1" ] && [ -n "$s2" ] && [ "$s1" != "$s2" ] || { echo "ci.sh: exdrad session open failed ($s1/$s2)" >&2; exit 1; }
curl -fsS -X POST -d '{"seed":7}' "$api/v1/sessions/$s1/lm" >"$tmp/lm1.json" &
lm1_pid=$!
curl -fsS -X POST -d '{"seed":9}' "$api/v1/sessions/$s2/lm" >"$tmp/lm2.json" &
lm2_pid=$!
wait "$lm1_pid" "$lm2_pid" || { echo "ci.sh: concurrent LM runs failed" >&2; cat "$tmp/d.log" >&2; exit 1; }
grep -q '"weights"' "$tmp/lm1.json" && grep -q '"weights"' "$tmp/lm2.json" \
  || { echo "ci.sh: LM responses carry no weights" >&2; exit 1; }
curl -fsS -X DELETE "$api/v1/sessions/$s1" >/dev/null
curl -fsS -X DELETE "$api/v1/sessions/$s2" >/dev/null
serve_scrape="$(curl -fsS "$d_metrics")"
for series in serve.sessions.opened serve.sessions.closed serve.pool.checkouts; do
  echo "$serve_scrape" | grep -q "$series" || { echo "ci.sh: exdrad /metrics is missing $series" >&2; exit 1; }
done
w1_scrape="$(curl -fsS "$w1_metrics")"
echo "$w1_scrape" | grep -q 'worker.conns' \
  || { echo "ci.sh: worker /metrics is missing worker.conns" >&2; exit 1; }
kill -TERM "$exdrad_pid"
wait "$exdrad_pid" 2>/dev/null || true
grep -q '^exdrad: shut down$' "$tmp/d.log" || { echo "ci.sh: exdrad did not drain cleanly" >&2; cat "$tmp/d.log" >&2; exit 1; }
kill "$w1_pid" "$w2_pid"
echo "ci.sh: exdrad smoke test passed (two concurrent sessions over $w1_addr,$w2_addr)"

# Bench smoke: measure the serialization rows afresh and gate enc+dec
# seconds against the committed baseline (see BENCH_smoke.json).
go run ./cmd/expbench -smoke -json "$tmp/BENCH_smoke.json"
go run ./cmd/expbench -compare "BENCH_smoke.json,$tmp/BENCH_smoke.json" -max-ratio 2
echo "ci.sh: bench smoke gate passed"

# Pipeline gate: measure the window-8 vs window-1 burst rows at the fixed
# 35 ms RTT and hold the acceptance bar — a depth-8 pipelined burst within
# 3.5 RTTs and at least 2x faster than window 1 (see BENCH_pipeline.json).
go run ./cmd/expbench -exp pipeline -json "$tmp/BENCH_pipeline.json"
go run ./cmd/expbench -check-pipeline "$tmp/BENCH_pipeline.json" -max-rtts 3.5 -min-speedup 2
echo "ci.sh: pipeline gate passed"
