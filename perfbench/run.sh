#!/usr/bin/env bash
# Builds cbfww-serve and the benchmark from this checkout, then runs one
# benchmark invocation. Usage (from the repository root):
#
#   bash perfbench/run.sh --workload hot-heap --seed 1 --seconds 10 --trace 0
#
# Everything it writes (binaries, Go build cache, daemon data and logs)
# stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root" && go build -o "$out/cbfww-serve" ./cmd/cbfww-serve) >&2
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --serve "$out/cbfww-serve" --work "$out/work" "$@"
