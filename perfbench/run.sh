#!/usr/bin/env bash
# Builds ccube-serve and the benchmark driver from this checkout's sources,
# then runs one benchmark workload. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 45 --trace 0
#
# Every build output and the Go build cache live under .bench_build/ in the
# checkout; nothing is fetched (the module has no external requirements).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a ccube checkout (go.mod, internal/ and perfbench/ required)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
# XDG_* keep the go command's config and telemetry files inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly GOSUMDB=off

(cd "$root/perfbench" && go build -o "$out/bin/ccube-serve" ccube/cmd/ccube-serve && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -serve-bin "$out/bin/ccube-serve" "$@"
