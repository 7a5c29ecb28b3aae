#!/usr/bin/env bash
# Builds the wire-level benchmark from this checkout's sources and runs it
# with the given flags. Run it from the repository root:
#
#   bash wirebench/run.sh --workload cached-m80 --seed 1 --seconds 10 --trace 0
#
# Every build artefact and cache stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/wirebench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# Telemetry off: otherwise the go command may start a telemetry sidecar
# process that outlives the build and competes with the measurement.
go telemetry off
(cd wirebench && go build -o "$out/wirebench" .)
exec "$out/wirebench" "$@"
