#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Everything the build writes stays under .bench_build in
# the checkout root: the binary, the Go build cache and the span files.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
