#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it sits in and runs it
# with the given arguments. Run from the checkout root:
#
#   bash cmd/perfbench/run.sh --workload paper-batch --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go's build cache, module cache, telemetry
# counters, the binary, trace files) stays in .bench_build/ under the
# checkout root. Without the repository's sources around cmd/perfbench/
# the build fails and the script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=mod -buildvcs=false"
(cd "$root/cmd/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
