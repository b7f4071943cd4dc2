#!/usr/bin/env bash
# service_smoke.sh — boot cmd/i2pdistribd against a small simulated
# network, exercise every endpoint once, check per-identity determinism,
# and verify graceful shutdown on SIGTERM.
#
# Usage:
#
#   ./scripts/service_smoke.sh
#
# SERVICE_SCALE overrides the network scale (default 0.02 ≈ 600 daily
# peers; the full-study default of 0.1 only slows the boot).
set -euo pipefail
cd "$(dirname "$0")/.."

scale="${SERVICE_SCALE:-0.02}"
workdir="$(mktemp -d)"
log="$workdir/daemon.log"
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/i2pdistribd" ./cmd/i2pdistribd
"$workdir/i2pdistribd" -addr 127.0.0.1:0 -scale "$scale" >"$log" 2>&1 &
pid=$!

# The daemon prints "listening on HOST:PORT" once the listener is up.
port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$log")"
  [ -n "$port" ] && break
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.2
done
if [ -z "$port" ]; then
  echo "service_smoke: daemon never started listening" >&2
  cat "$log" >&2
  exit 1
fi
base="http://127.0.0.1:$port"

# Handout: granted JSON, byte-identical on re-request.
h1="$(curl -fsS "$base/handout?dist=https&id=smoke")"
h2="$(curl -fsS "$base/handout?dist=https&id=smoke")"
if [ "$h1" != "$h2" ]; then
  echo "service_smoke: handout not deterministic for one identity" >&2
  exit 1
fi
echo "$h1" | grep -q '"granted":true' || {
  echo "service_smoke: handout not granted: $h1" >&2
  exit 1
}

# Seed bundle, metrics, liveness.
curl -fsS -o "$workdir/seeds.su3" "$base/i2pseeds.su3?id=smoke"
[ -s "$workdir/seeds.su3" ] || { echo "service_smoke: empty seed bundle" >&2; exit 1; }
curl -fsS "$base/metrics" | grep -q 'i2pdistribd_requests_total' || {
  echo "service_smoke: /metrics missing request counters" >&2
  exit 1
}
curl -fsS "$base/healthz" | grep -q ok

# Garbage dist values (404s) share one request series, whatever they say.
for i in 1 2 3 4 5; do curl -s -o /dev/null "$base/handout?dist=bogus$i&id=bogus$i"; done
[ "$(curl -fsS "$base/metrics" | grep -c '^i2pdistribd_requests_total{.*code="404"}')" -eq 1 ] || {
  echo "service_smoke: unknown dist values minted more than one 404 series" >&2
  exit 1
}

# A query over the 1 KiB limit is refused unparsed.
[ "$(curl -s -o /dev/null -w '%{http_code}' "$base/handout?dist=https&id=$(head -c 1100 /dev/zero | tr '\0' x)")" = 414 ] || {
  echo "service_smoke: over-long query not refused with 414" >&2
  exit 1
}

# Graceful shutdown: SIGTERM drains and the daemon logs the clean exit.
kill -TERM "$pid"
status=0
wait "$pid" || status=$?
if [ "$status" -ne 0 ]; then
  echo "service_smoke: daemon exited $status on SIGTERM" >&2
  cat "$log" >&2
  exit 1
fi
grep -q 'shut down cleanly' "$log" || {
  echo "service_smoke: missing clean-shutdown line" >&2
  cat "$log" >&2
  exit 1
}

echo "service smoke OK (port $port, scale $scale)"
