#!/usr/bin/env bash
# Builds nrad and the benchmark from this checkout, then runs one
# benchmark workload. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload paper-analytic --seed 1 --seconds 10 --trace 0
#
# Everything it builds and generates stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root" && go build -o "$out/bin/nrad" ./cmd/nrad) >&2
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .) >&2
exec "$out/bin/e2ebench" -nrad "$out/bin/nrad" -work "$out/run" "$@"
