#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash _perfbench/run.sh --workload fig78_bpa --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build, relative to the repository
# root): the Go build and module caches, the binary, and the scratch data
# and cache directories of the nvmd workloads.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config" "$out/cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/tmp" "$@"
