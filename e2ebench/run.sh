#!/usr/bin/env bash
# Builds the benchmark and citesrv from this checkout, then runs one
# benchmark invocation. Run from the repository root:
#
#   bash e2ebench/run.sh --workload gtopdb-wire --seed 1 --seconds 20 --trace 0
#   bash e2ebench/run.sh --workload citegraph-mix --seed 1 --seconds 20 --repeat 5
#
# Everything the build and the runs leave behind stays in .bench_build/ at
# the repository root (Go build cache included).
set -euo pipefail
root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/e2ebench/go.mod" || ! -d "$root/cmd/citesrv" ]]; then
	echo "e2ebench: run from the repository root (go.mod, cmd/citesrv and e2ebench/ must exist)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
go build -o "$out/citesrv" ./cmd/citesrv >&2
exec "$out/e2ebench" -out "$out" "$@"
