#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# flags. Everything the build writes (binary and Go build cache) goes
# under .bench_build/ at the checkout root, so a run touches nothing
# outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/bench" .) >&2
cd "$root"
exec "$build/bench" "$@"
