#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs it with the given arguments. Run from the checkout's root:
#
#   bash perfbench/run.sh --workload splash-engine --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, Go's own
# configuration and telemetry, the binary, and the result and span files.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/perfbench"

export GOCACHE="$build/perfbench/gocache" GOPATH="$build/perfbench/gopath"
export XDG_CONFIG_HOME="$build/perfbench/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .) >&2

commit=unknown
if [ -d "$root/.git" ]; then
    commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
export PERFBENCH_COMMIT=$commit
exec "$build/perfbench/perfbench" --out "$build/perfbench" "$@"
