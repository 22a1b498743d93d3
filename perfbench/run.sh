#!/usr/bin/env bash
# Builds the schemex server and the benchmark program from source, then runs
# one workload:
#
#   bash perfbench/run.sh --workload extract-cold --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Every build product, the Go build cache, the
# go command's config dir (its telemetry counters) and each run's scratch
# directory stay under .bench_build/ in the checkout. The last line of
# standard output is the JSON result.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/schemex-server" ]]; then
	echo "perfbench: run from the repository root (no schemex sources here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/bin/schemex-server" ./cmd/schemex-server >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -server "$out/bin/schemex-server" -scratch "$out/runs" "$@"
