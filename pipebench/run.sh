#!/usr/bin/env bash
# Builds the pipeline benchmark from the checkout it is run in and runs it.
# Run from the repository root:
#
#   bash pipebench/run.sh --workload sim-fattree --seed 1 --seconds 20 --trace 0
#
# Build output, Go caches and the traced run's span dump go to .bench_build/
# at the repository root; nothing is written elsewhere and nothing is
# fetched (GOPROXY=off: the module needs only the repository itself).
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
  XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
  GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/pipebench" .)
exec "$out/pipebench" --spans-out "$out/spans.jsonl" "$@"
