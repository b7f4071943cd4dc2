#!/usr/bin/env bash
# trace_smoke.sh — end-to-end check of the -trace flag.
#
# Runs a tiny traced adversary sweep through the real CLI, then
# validates the emitted Chrome trace-event JSON with scripts/tracecheck:
# one JSON array, well-formed span/instant/metadata events, at least one
# real span. The trace file is left at $1 (default trace.json) so CI can
# upload it as an artifact — drop it into https://ui.perfetto.dev to
# eyeball the per-worker rows.
#
# A second traced run is made to fail (an injected error at the first
# finished experiment): it must exit non-zero and still leave a trace
# tracecheck accepts — the CLI closes the JSON array on every exit path.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-trace.json}"

go run ./cmd/i2pcensor -scale 0.02 -days 40 -experiment figure-13 -trace "$out" > /dev/null
go run ./scripts/tracecheck "$out"

failed="$(mktemp)"
trap 'rm -f "$failed"' EXIT
if go run ./cmd/i2pcensor -scale 0.02 -days 40 -experiment port-blocking -trace "$failed" \
  -inject core.runall.experiment:1:error > /dev/null 2>&1; then
  echo "trace_smoke: run with an injected error exited 0" >&2
  exit 1
fi
go run ./scripts/tracecheck "$failed"
