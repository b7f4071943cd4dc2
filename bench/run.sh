#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments. Run it from
# the root of a checkout: the binary and the go build cache go under
# .bench_build/ there — and so do the go tool's own config and telemetry
# files (XDG_CONFIG_HOME) — so nothing is written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/bench" .) >&2
exec "$build/bench" "$@"
