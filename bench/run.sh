#!/usr/bin/env bash
# Builds the served-query benchmark from source and runs it with the given
# arguments. Everything the build and the run write stays under bench/out/.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$here/out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$out/servedbench" .
exec "$out/servedbench" "$@"
