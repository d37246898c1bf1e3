#!/usr/bin/env bash
# Builds xmbench from the checkout it sits in and runs it with the given
# arguments, from the repository root. Build outputs (binary, Go build
# cache, Go tool configuration, temporary files) stay under .bench_build
# at the root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/xmbench" .)
cd "$root"
exec "$build/xmbench" "$@"
