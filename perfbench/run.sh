#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload corpus-cold --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary, scratch
# stores and reports all stay under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# Record the measured revision when the root is a git checkout.
if [ -z "${PERFBENCH_COMMIT:-}" ] && [ -e "$root/.git" ]; then
  PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
  export PERFBENCH_COMMIT
fi
exec "$out/perfbench" "$@"
