#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload search --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the workload's data directories all live under $CARGO_TARGET_DIR
# (default .bench_build), so a run reads and writes only inside the
# checkout.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
# XDG_CONFIG_HOME keeps the go command's own config and telemetry files
# inside the checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out" "$@"
