#!/usr/bin/env bash
# Builds dramdigd and the perfbench harness from this checkout, then runs
# one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper_fresh --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/dramdigd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a dramdig checkout" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false CGO_ENABLED=0

go build -o "$out/bin/dramdigd" ./cmd/dramdigd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -daemon "$out/bin/dramdigd" -workdir "$out" "$@"
