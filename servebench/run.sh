#!/usr/bin/env bash
# Builds qpld and the benchmark from the checkout in the current directory,
# then runs one benchmark run. Run from the repository root:
#
#   bash servebench/run.sh --workload fullchip --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes goes under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/qpld" || ! -f "$root/servebench/go.mod" ]]; then
	echo "servebench: run from the repository root (need go.mod, cmd/qpld and servebench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS="-mod=readonly -buildvcs=false" GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

go build -o "$out/qpld" ./cmd/qpld
(cd servebench && go build -o "$out/servebench" .)
exec "$out/servebench" -qpld "$out/qpld" -work "$out/work" "$@"
