#!/usr/bin/env bash
# Builds the benchmark from the checkout and runs it. Run from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload serve_sim --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --seed 1     # every workload in turn
#
# Everything the Go toolchain writes (build cache, temporary files, its
# telemetry and config) stays under the build directory inside the
# checkout, .bench_build by default.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .)

if [ "${1:-}" = "--workload" ] && [ "${2:-}" = "all" ]; then
	shift 2
	status=0
	for w in ingest_http serve_sim admit_batch rounds_fd; do
		"$build/perfbench" --workload "$w" "$@" || status=1
	done
	exit "$status"
fi
exec "$build/perfbench" "$@"
