#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build leaves
# behind, the Go build cache included, stays inside the checkout under
# .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
export GOCACHE="$build/gocache"
go build -C "$here" -o "$build/reco-bench" .
exec "$build/reco-bench" "$@"
