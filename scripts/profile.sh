#!/usr/bin/env bash
# profile.sh — capture CPU and allocation profiles of the simulator hot
# path, the evidence base for allocation burn-down work (the kind that took
# BenchmarkSimulatorThroughput from 812 to 166 allocs/op).
#
# Two capture routes, same pprof output format:
#
#   scripts/profile.sh bench [dir]   # profile BenchmarkSimulatorThroughput
#   scripts/profile.sh sim   [dir]   # profile a cmd/rlirsim tandem run
#
# The bench route uses `go test -cpuprofile/-memprofile` with
# -memprofilerate=1 so every allocation is attributed exactly (slower, but
# the per-op counts then match -benchmem). The sim route exercises the
# same flags cmd/rlirsim exposes to operators. Profiles land in <dir>
# (default ./profiles) as cpu.pprof / mem.pprof plus a pre-rendered
# top-25 text summary; inspect interactively with:
#
#   go tool pprof -http=: profiles/cpu.pprof
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-bench}"
dir="${2:-profiles}"
mkdir -p "$dir"

case "$mode" in
  bench)
    echo "profile.sh: profiling BenchmarkSimulatorThroughput (exact alloc attribution)..." >&2
    go test -run '^$' -bench 'BenchmarkSimulatorThroughput$' -benchtime 5x \
      -cpuprofile "$dir/cpu.pprof" -memprofile "$dir/mem.pprof" -memprofilerate=1 .
    ;;
  sim)
    echo "profile.sh: profiling cmd/rlirsim (tandem, default scale)..." >&2
    go run ./cmd/rlirsim -scheme static -model random -util 0.93 \
      -cpuprofile "$dir/cpu.pprof" -memprofile "$dir/mem.pprof" > /dev/null
    ;;
  *)
    echo "profile.sh: unknown mode $mode (valid: bench, sim)" >&2
    exit 2
    ;;
esac

# rlir.test is the bench route's binary; go tool pprof resolves symbols
# from the profile itself for the sim route.
go tool pprof -top -nodecount=25 "$dir/cpu.pprof" > "$dir/cpu.top.txt"
go tool pprof -top -nodecount=25 -sample_index=alloc_objects "$dir/mem.pprof" > "$dir/mem.top.txt"
rm -f rlir.test

echo "profile.sh: wrote $dir/cpu.pprof, $dir/mem.pprof (+ .top.txt summaries)" >&2
grep -m1 -A3 "flat  flat%" "$dir/cpu.top.txt" || true
