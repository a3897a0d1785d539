#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Every build
# artefact (Go build cache, temp files, binary) and every file the run writes
# stays under .bench_build/ in the directory it is started from, which must
# be the repository root.
#
#   bash perfbench/run.sh --workload quick4 --seed 1 --seconds 30 --trace 0
set -euo pipefail

out="${PWD}/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
unset PIPM_INTRA_WORKERS

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out/work" "$@"
