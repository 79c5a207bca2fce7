#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments (see e2ebench/README.md). Run from the repository root. The
# binary, the Go build cache and every run's scratch files stay under
# .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
# Keep everything the go command writes (build cache, module cache, its
# telemetry under the user config directory) inside the build directory.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
