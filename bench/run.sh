#!/usr/bin/env bash
# Builds the benchmark runner and the nocd daemon it drives, then runs the
# runner with the arguments given. Everything the build writes — binaries,
# Go's build cache, Go's own settings — stays under bench/.build, so a run
# touches nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/" . pseudocircuit/cmd/nocd) >&2
exec "$build/bench" -nocd "$build/nocd" -out "$here/out" "$@"
