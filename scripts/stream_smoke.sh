#!/usr/bin/env bash
# stream_smoke.sh — end-to-end check of the bounded-memory campaign:
# run one campaign with a -checkpoint-dir, then assert the memory
# accounting the engine printed:
#
#   * the peak retained-unit count stays strictly below the grid size
#     (O(workers) resident days, not O(days)) and within the admission
#     window;
#   * retain/release balance: zero units and zero resident bytes remain
#     after the run;
#   * the checkpoint directory holds every day unit, so the same
#     directory can resume the campaign.
#
# Usage:
#
#   ./scripts/stream_smoke.sh
#
# STREAM_DAYS / STREAM_WORKERS / STREAM_SCALE override the grid (default
# 40 days x 8 observers at scale 0.02, workers 4 — small enough for CI,
# big enough that the grid is 5x the days the window admits).
set -euo pipefail
cd "$(dirname "$0")/.."

days="${STREAM_DAYS:-40}"
workers="${STREAM_WORKERS:-4}"
scale="${STREAM_SCALE:-0.02}"
workdir="$(mktemp -d)"
ckpt="$workdir/ckpt"
trap 'rm -rf "$workdir"' EXIT

snap="$(go run ./scripts/obssnap -campaign -days "$days" -workers "$workers" \
  -scale "$scale" -checkpoint-dir "$ckpt")"
echo "$snap"

field() {
  echo "$snap" | awk -v k="$1" '$1 == k {print $2}'
}
peak="$(field measure_retained_units_peak)"
retained="$(field measure_retained_units)"
resident="$(field measure_resident_bytes)"
grid="$(field campaign_days)"
if [ -z "$peak" ] || [ -z "$retained" ] || [ -z "$resident" ] || [ -z "$grid" ]; then
  echo "stream_smoke: missing accounting fields in obssnap output" >&2
  exit 1
fi

# The structural ceiling is the admission window: a unit exists only for
# a day admitted and not yet folded, and at most two days per worker are
# (windowFactor in internal/measure/stream.go).
ceiling=$((2 * workers))
if [ "$peak" -lt 1 ] || [ "$peak" -gt "$ceiling" ]; then
  echo "stream_smoke: peak retained units $peak outside [1, $ceiling]" >&2
  exit 1
fi
if [ "$peak" -ge "$grid" ]; then
  echo "stream_smoke: peak retained units $peak not below the $grid-day grid" >&2
  exit 1
fi
if [ "$retained" -ne 0 ] || [ "$resident" -ne 0 ]; then
  echo "stream_smoke: accounting leak after the run (retained=$retained resident_bytes=$resident)" >&2
  exit 1
fi

# Every day must have committed a checkpoint unit at its fold, so the
# grid resumes from here.
units="$(ls "$ckpt"/day-* 2>/dev/null | wc -l)"
if [ "$units" -ne "$grid" ]; then
  echo "stream_smoke: checkpoint dir holds $units day units, want $grid" >&2
  ls -la "$ckpt" >&2 || true
  exit 1
fi
if ls "$ckpt"/.*.tmp >/dev/null 2>&1; then
  echo "stream_smoke: staging files left behind in the checkpoint dir" >&2
  exit 1
fi

echo "stream smoke OK (peak $peak of ceiling $ceiling on a $grid-day grid, $units units committed)"
