#!/usr/bin/env bash
# Builds muzzlebench from the sources of the checkout this script sits in
# and runs it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload table3-compile --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, the go
# command's configuration and telemetry, temporary directories, span
# files) stays under .bench_build/ at the checkout root. The benchmark is
# its own module (benchmark/go.mod) that uses the repository's module
# through a local replace, so the build needs no download, and it fails,
# with the script exiting non-zero, when the repository's sources are
# missing.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

go build -C benchmark -o "$out/muzzlebench" .
exec "$out/muzzlebench" "$@"
