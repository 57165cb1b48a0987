#!/usr/bin/env bash
# Builds the benchmark (a module of its own under bench/) and runs it from
# the repository root. Everything the Go toolchain writes stays inside the
# checkout, under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-modcacherw GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/bin/bench" .)
cd "$root"
exec "$build/bin/bench" "$@"
