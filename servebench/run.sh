#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it sits in and runs it
# with the given arguments, e.g.
#
#   bash servebench/run.sh --workload road-cold --seed 1 --seconds 10 --trace 0
#
# Every build artefact (binary, Go build cache, temporary files) stays
# under .bench_build/ at the checkout root. Without the repository's
# sources next to this directory the build fails and so does the run.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/servebench" .)
exec "$build/servebench" "$@"
