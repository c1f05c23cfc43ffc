#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload lifecycle-p-file --seed 1 --seconds 15 --trace 0
# Run it from the repository root. The Go build cache, temporary files,
# array files and span files all stay under the build directory
# ($CARGO_TARGET_DIR, default .bench_build), inside the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/go-cache" "$out/tmp" "$out/home"
export GOCACHE=$out/go-cache GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
  GOPATH=$out/gopath HOME=$out/home XDG_CONFIG_HOME=$out/home \
  GOENV=off GOFLAGS= GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out" "$@"
