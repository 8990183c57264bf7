#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout.
# Everything the build writes — the binary, Go's build cache, its scratch
# files — stays under .bench_build/ in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

(
	cd "$here"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local \
		go build -o "$build/scanshare-benchmark" .
)
cd "$root"
exec "$build/scanshare-benchmark" "$@"
