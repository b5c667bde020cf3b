#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash gossipbench/run.sh --workload sim-sears --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Build outputs and the Go build cache stay
# under .bench_build/ in the checkout (CARGO_TARGET_DIR, when set, names
# that directory); nothing is fetched from the network.
set -euo pipefail

root=$(pwd)
bench_dir="$root/gossipbench"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
go_bin=$(command -v go || true)
if [ -z "$go_bin" ] && [ -x /usr/local/go/bin/go ]; then
	go_bin=/usr/local/go/bin/go
fi
if [ -z "$go_bin" ]; then
	echo "gossipbench: no Go toolchain on PATH" >&2
	exit 2
fi

# The benchmark module replaces the repro module with the checkout's root;
# without it (a directory holding only the benchmark) the build fails here.
if [ ! -f "$root/go.mod" ]; then
	echo "gossipbench: $root holds no repro module to benchmark" >&2
	exit 2
fi
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$bench_dir" && "$go_bin" build -trimpath -o "$out/gossipbench" .) >&2
exec "$out/gossipbench" "$@"
