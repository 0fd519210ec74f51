#!/usr/bin/env bash
# Builds flatbench from source inside the checkout and runs it with the
# given arguments. Everything the build writes (binary, Go build cache, the
# toolchain's per-user counters) stays under .bench_build/ at the root of the
# checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go -C bench build -o "$build/flatbench" .
exec "$build/flatbench" "$@"
