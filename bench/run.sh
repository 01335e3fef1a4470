#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given flags, e.g.
#
#   bash bench/run.sh --workload corpus-cold --seed 7 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there: the Go build cache, the binary, the generated
# corpora (removed on exit) and trace files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd "$root/bench" && go build -o "$out/webssari-bench" .)
exec "$out/webssari-bench" -workdir "$out" "$@"
