#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Run from the repository root:
#   bash e2ebench/run.sh --workload mixed --seed 1 --seconds 20 --trace 0
# Build outputs (binary, Go build cache) go under .bench_build/, or under
# $CARGO_TARGET_DIR when it is set.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOWORK=off

(cd "$root/e2ebench" && go build -buildvcs=false -trimpath -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -out "$out" "$@"
