#!/usr/bin/env bash
# crash_resume_smoke.sh — end-to-end crash drill for the checkpoint
# layer on a real binary: run cmd/i2pcensor with an injected hard exit
# (faults Exit mode, status 3), confirm the interrupted run left
# committed checkpoint units behind, confirm the directory is refused
# without -resume, resume it, and require the resumed output to be
# byte-identical to an uninterrupted reference run. A second leg does
# the same to the measurement campaign's day units through
# cmd/i2pmeasure -snapshot-dir, and also compares the snapshot trees.
#
# Usage:
#
#   ./scripts/crash_resume_smoke.sh
#
# CENSOR_SCALE overrides the network scale (default 0.04 ≈ 1200 daily
# peers — the same size the in-process crash goldens use).
set -euo pipefail
cd "$(dirname "$0")/.."

scale="${CENSOR_SCALE:-0.04}"
exps="reseed-blocking,port-blocking,dpi-fingerprinting"
workdir="$(mktemp -d)"
ckpt="$workdir/ckpt"
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/i2pcensor" ./cmd/i2pcensor

# Uninterrupted reference: no checkpointing involved at all.
"$workdir/i2pcensor" -scale "$scale" -experiment "$exps" >"$workdir/ref.out"

# Crash run: hard-exit after the first experiment commits its unit.
# Serial so exactly one unit is on disk when the process dies.
status=0
"$workdir/i2pcensor" -scale "$scale" -experiment "$exps" \
  -checkpoint-dir "$ckpt" -workers 1 \
  -inject core.runall.experiment:1:exit >"$workdir/crash.out" 2>&1 || status=$?
if [ "$status" -ne 3 ]; then
  echo "crash_resume_smoke: injected exit returned status $status, want 3" >&2
  cat "$workdir/crash.out" >&2
  exit 1
fi
if ! ls "$ckpt"/exp-* >/dev/null 2>&1; then
  echo "crash_resume_smoke: crashed run left no committed experiment unit in $ckpt" >&2
  ls -la "$ckpt" >&2 || true
  exit 1
fi
if ls "$ckpt"/.*.tmp >/dev/null 2>&1; then
  echo "crash_resume_smoke: crashed run left staging files behind" >&2
  ls -la "$ckpt" >&2
  exit 1
fi

# A directory holding a previous run's manifest must be refused without
# -resume: silently reusing it is how state from the wrong run leaks in.
if "$workdir/i2pcensor" -scale "$scale" -experiment "$exps" \
  -checkpoint-dir "$ckpt" >/dev/null 2>&1; then
  echo "crash_resume_smoke: existing checkpoint dir accepted without -resume" >&2
  exit 1
fi

# Resume and compare: the resumed run loads the committed unit, computes
# the rest, and must print exactly what the uninterrupted run printed.
"$workdir/i2pcensor" -scale "$scale" -experiment "$exps" \
  -checkpoint-dir "$ckpt" -resume >"$workdir/resumed.out"
if ! diff -u "$workdir/ref.out" "$workdir/resumed.out"; then
  echo "crash_resume_smoke: resumed output differs from the uninterrupted reference" >&2
  exit 1
fi

# Campaign leg: i2pmeasure's -snapshot-dir campaign keeps its day units
# under <checkpoint-dir>/campaign. Two workers commit days in any order;
# the hard exit lands after the second committed day, and the resumed
# run loads whichever days are on disk and captures the rest.
go build -o "$workdir/i2pmeasure" ./cmd/i2pmeasure
measure=(-scale 0.02 -days 40 -experiment figure-05 -workers 2)
"$workdir/i2pmeasure" "${measure[@]}" -snapshot-dir "$workdir/snap-ref" \
  2>/dev/null | sed "s|$workdir/snap-ref|SNAP|" >"$workdir/measure-ref.out"
status=0
"$workdir/i2pmeasure" "${measure[@]}" -snapshot-dir "$workdir/snap" \
  -checkpoint-dir "$workdir/mckpt" \
  -inject measure.campaign.day:2:exit >"$workdir/measure-crash.out" 2>&1 || status=$?
if [ "$status" -ne 3 ]; then
  echo "crash_resume_smoke: campaign injected exit returned status $status, want 3" >&2
  cat "$workdir/measure-crash.out" >&2
  exit 1
fi
"$workdir/i2pmeasure" "${measure[@]}" -snapshot-dir "$workdir/snap" \
  -checkpoint-dir "$workdir/mckpt" -resume \
  2>/dev/null | sed "s|$workdir/snap|SNAP|" >"$workdir/measure-resumed.out"
if ! diff -u "$workdir/measure-ref.out" "$workdir/measure-resumed.out"; then
  echo "crash_resume_smoke: resumed campaign output differs from the uninterrupted reference" >&2
  exit 1
fi
if ! diff -r "$workdir/snap-ref" "$workdir/snap"; then
  echo "crash_resume_smoke: resumed campaign snapshots differ from the uninterrupted reference" >&2
  exit 1
fi

echo "crash-resume smoke OK (scale $scale, experiments $exps; campaign leg figure-05)"
