#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Invoke from the
# repository root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload sweep-paper --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build in the current directory.
set -euo pipefail
# Fall back to the Go distribution's default install location when go
# is not on PATH.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
  GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS= GOTOOLCHAIN=local \
  GOTELEMETRY=off GOENV=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
