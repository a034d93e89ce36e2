#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the
# given arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload shelf --seed 1 --seconds 15 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build in the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}"
export GOCACHE="${out}/gocache"
export GOMODCACHE="${out}/gomodcache"
export GOTOOLCHAIN=local
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" "$@"
