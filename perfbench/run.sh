#!/usr/bin/env bash
# Builds the benchmark and the cmd/served daemon from the sources of the
# checkout it is run from, then runs one workload:
#
#   bash perfbench/run.sh --workload tune-bao --seed 2021 --seconds 20 --trace 0
#
# Everything it builds or writes (Go build cache, binaries, job stores,
# record logs, traces) stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -buildvcs=false -o "$out/bin/perfbench" . &&
	go build -buildvcs=false -o "$out/bin/served" repro/cmd/served) >&2
if [ -d "$root/.git" ]; then
	PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
	export PERFBENCH_COMMIT
fi
exec "$out/bin/perfbench" -work-dir "$out/run" -served "$out/bin/served" "$@"
