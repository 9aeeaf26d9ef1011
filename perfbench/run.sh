#!/usr/bin/env bash
# Builds the programs under test (routergeo, geoserve, geosnap) and the
# harness from this checkout, then runs the harness with the given flags.
#
#   bash perfbench/run.sh --workload repro --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product, cache and scratch
# file goes under .bench_build/ in the checkout; nothing is fetched.
set -euo pipefail

root=$PWD
if [[ ! -f go.mod || ! -d cmd/routergeo || ! -d cmd/geoserve || ! -d cmd/geosnap ]]; then
  echo "perfbench: run from the repository root (no go.mod or cmd/ sources here)" >&2
  exit 2
fi

out=$root/.bench_build
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath" "$out/work"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$out/bin/" ./cmd/routergeo ./cmd/geoserve ./cmd/geosnap >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" -work "$out/work" "$@"
