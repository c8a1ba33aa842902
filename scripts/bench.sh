#!/usr/bin/env bash
# bench.sh — run the perf benchmark suite and record the result as
# BENCH_<N>.json in the repository root, starting the performance
# trajectory across PRs.
#
# Usage:
#   scripts/bench.sh        # picks the next free N (BENCH_1.json, BENCH_2.json, ...)
#   scripts/bench.sh 3      # writes/overwrites BENCH_3.json
#
# Captured: raw simulator throughput (pkts/s, ns/op, B/op, allocs/op) from
# BenchmarkSimulatorThroughput, the headline figure metrics from
# BenchmarkScalars (base utilization, adaptive gap, median relative error
# for static injection at 93% utilization), collector ingest throughput
# (BenchmarkIngest in internal/collector), multi-seed runner scaling
# (BenchmarkRunnerSweep1 vs BenchmarkRunnerSweep4: an 8-seed sweep at 1 vs
# 4 workers, with the wall-clock speedup ratio), the estimator layer's
# shared-tap dispatch overhead (BenchmarkSharedTap in internal/measure:
# per-packet cost of fanning one stream to the full comparison set), the
# secret-key sampling tap (BenchmarkHashSampleTap in internal/measure:
# per-packet cost of the keyed-hash sample decision plus pair matching —
# the path that defeats the delay-gaming router, gated at 0 allocs/op), and
# the streaming service's ingest throughput (BenchmarkServiceIngest4Conns
# in internal/service: four concurrent connections writing pre-encoded
# wire frames over loopback TCP through the full rlird path), and the
# fleet tier (internal/fleet): aggregate ingest across a 4-instance
# partitioned fleet (BenchmarkFleetIngest4x, samples/s) and the
# scatter-gather front-end's merged query latency
# (BenchmarkFleetScatterGather, ms/query), and the bounded-memory
# aggregation tier: quantile-sketch ingest (BenchmarkSketchAdd in
# internal/stats, samples/s) and flow-table eviction throughput under
# full churn (BenchmarkEvictionChurn in internal/collector, samples/s
# through a capped LRU table folding into the rollup), and the parallel
# event engine (BenchmarkScenarioSequential vs BenchmarkScenarioParallel2/4:
# one fat-tree scenario end to end on the sequential vs the conservative
# parallel engine, with the speedup ratios — honest numbers, so on a
# single-core runner they sit at or below 1x — plus the sequential run's
# allocations, the fat-tree path's allocation gate).
#
# Every section records the "cpus" the numbers were measured with, so
# downstream consumers (scripts/bench_check.sh) can tell a genuine scaling
# regression from a single-core runner that cannot scale.
set -euo pipefail
cd "$(dirname "$0")/.."

n="${1:-}"
if [ -z "$n" ]; then
  n=1
  while [ -e "BENCH_${n}.json" ]; do n=$((n + 1)); done
fi
out="BENCH_${n}.json"

echo "running benchmark suite (this takes a few minutes)..." >&2
raw=$(go test -run '^$' -bench 'BenchmarkSimulatorThroughput$|BenchmarkScalars$' \
  -benchmem -benchtime 10x . 2>&1)
raw_collector=$(go test -run '^$' -bench 'BenchmarkIngest$' \
  -benchmem ./internal/collector 2>&1)
raw_runner=$(go test -run '^$' -bench 'BenchmarkRunnerSweep[14]$' \
  -benchtime 3x . 2>&1)
raw_measure=$(go test -run '^$' -bench 'BenchmarkSharedTap$|BenchmarkHashSampleTap$' \
  -benchmem ./internal/measure 2>&1)
raw_service=$(go test -run '^$' -bench 'BenchmarkServiceIngest4Conns$' \
  -benchtime 2s ./internal/service 2>&1)
raw_fleet=$(go test -run '^$' -bench 'BenchmarkFleetIngest4x$|BenchmarkFleetScatterGather$' \
  -benchtime 2s ./internal/fleet 2>&1)
raw_sketch=$(go test -run '^$' -bench 'BenchmarkSketchAdd$' \
  -benchmem ./internal/stats 2>&1)
raw_churn=$(go test -run '^$' -bench 'BenchmarkEvictionChurn$' \
  -benchmem ./internal/collector 2>&1)
raw_par=$(go test -run '^$' -bench 'BenchmarkScenarioSequential$|BenchmarkScenarioParallel[24]$' \
  -benchmem -benchtime 3x . 2>&1)
raw=$(printf '%s\n%s\n%s\n%s\n%s\n%s\n%s\n%s\n%s\n' "$raw" "$raw_collector" "$raw_runner" "$raw_measure" "$raw_service" "$raw_fleet" "$raw_sketch" "$raw_churn" "$raw_par")

echo "$raw" | grep -E '^Benchmark' >&2

echo "$raw" | awk -v bench="$n" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
  -v commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
  -v goversion="$(go env GOVERSION)" -v maxprocs="$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)" '
  /^BenchmarkSimulatorThroughput/ {
    for (i = 1; i < NF; i++) {
      if ($(i + 1) == "ns/op") ns = $i
      if ($(i + 1) == "pkts/s") pkts = $i
      if ($(i + 1) == "B/op") bytes = $i
      if ($(i + 1) == "allocs/op") allocs = $i
    }
  }
  /^BenchmarkScalars/ {
    for (i = 1; i < NF; i++) {
      if ($(i + 1) == "baseUtil") base = $i
      if ($(i + 1) == "adaptiveGap") gap = $i
      if ($(i + 1) == "medianRelErr@93static") err = $i
    }
  }
  /^BenchmarkIngest-/ || /^BenchmarkIngest / {
    for (i = 1; i < NF; i++) {
      if ($(i + 1) == "samples/s") ingest = $i
      if ($(i + 1) == "ns/op") ingestns = $i
    }
  }
  /^BenchmarkRunnerSweep1/ {
    for (i = 1; i < NF; i++) if ($(i + 1) == "ns/op") sweep1 = $i
  }
  /^BenchmarkRunnerSweep4/ {
    for (i = 1; i < NF; i++) {
      if ($(i + 1) == "ns/op") sweep4 = $i
      if ($(i + 1) == "medianRelErr") sweeperr = $i
      if ($(i + 1) == "medianRelErrCI95") sweepci = $i
    }
  }
  /^BenchmarkSharedTap/ {
    for (i = 1; i < NF; i++) {
      if ($(i + 1) == "pkts/s") tap = $i
      if ($(i + 1) == "ns/op") tapns = $i
      if ($(i + 1) == "allocs/op") tapallocs = $i
    }
  }
  /^BenchmarkHashSampleTap/ {
    for (i = 1; i < NF; i++) {
      if ($(i + 1) == "pkts/s") htap = $i
      if ($(i + 1) == "ns/op") htapns = $i
      if ($(i + 1) == "allocs/op") htapallocs = $i
    }
  }
  /^BenchmarkServiceIngest4Conns/ {
    for (i = 1; i < NF; i++) {
      if ($(i + 1) == "samples/s") svc = $i
      if ($(i + 1) == "ns/op") svcns = $i
    }
  }
  /^BenchmarkFleetIngest4x/ {
    for (i = 1; i < NF; i++) if ($(i + 1) == "samples/s") fleet = $i
  }
  /^BenchmarkFleetScatterGather/ {
    for (i = 1; i < NF; i++) if ($(i + 1) == "ms/query") fleetq = $i
  }
  /^BenchmarkSketchAdd/ {
    for (i = 1; i < NF; i++) {
      if ($(i + 1) == "samples/s") sketch = $i
      if ($(i + 1) == "ns/op") sketchns = $i
      if ($(i + 1) == "allocs/op") sketchallocs = $i
    }
  }
  /^BenchmarkEvictionChurn/ {
    for (i = 1; i < NF; i++) {
      if ($(i + 1) == "samples/s") churn = $i
      if ($(i + 1) == "ns/op") churnns = $i
    }
  }
  /^BenchmarkScenarioSequential/ {
    for (i = 1; i < NF; i++) {
      if ($(i + 1) == "ns/op") seqns = $i
      if ($(i + 1) == "allocs/op") seqallocs = $i
    }
  }
  /^BenchmarkScenarioParallel2/ {
    for (i = 1; i < NF; i++) if ($(i + 1) == "ns/op") parns2 = $i
  }
  /^BenchmarkScenarioParallel4/ {
    for (i = 1; i < NF; i++) if ($(i + 1) == "ns/op") parns4 = $i
  }
  END {
    if (pkts == "") { print "bench.sh: no throughput result parsed" > "/dev/stderr"; exit 1 }
    if (ingest == "") { print "bench.sh: no collector ingest result parsed" > "/dev/stderr"; exit 1 }
    if (sweep1 == "" || sweep4 == "") { print "bench.sh: no runner scaling result parsed" > "/dev/stderr"; exit 1 }
    if (tap == "") { print "bench.sh: no shared-tap result parsed" > "/dev/stderr"; exit 1 }
    if (htap == "") { print "bench.sh: no hash-sample tap result parsed" > "/dev/stderr"; exit 1 }
    if (svc == "") { print "bench.sh: no service ingest result parsed" > "/dev/stderr"; exit 1 }
    if (fleet == "" || fleetq == "") { print "bench.sh: no fleet result parsed" > "/dev/stderr"; exit 1 }
    if (sketch == "") { print "bench.sh: no sketch ingest result parsed" > "/dev/stderr"; exit 1 }
    if (churn == "") { print "bench.sh: no eviction churn result parsed" > "/dev/stderr"; exit 1 }
    if (seqns == "" || seqallocs == "" || parns2 == "" || parns4 == "") { print "bench.sh: no parallel-engine result parsed" > "/dev/stderr"; exit 1 }
    printf "{\n"
    printf "  \"bench\": %d,\n", bench
    printf "  \"date\": \"%s\",\n", date
    printf "  \"commit\": \"%s\",\n", commit
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"cpus\": %s,\n", maxprocs
    printf "  \"simulator_throughput\": {\n"
    printf "    \"cpus\": %s,\n", maxprocs
    printf "    \"pkts_per_s\": %s,\n", pkts
    printf "    \"ns_per_op\": %s,\n", ns
    printf "    \"bytes_per_op\": %s,\n", bytes
    printf "    \"allocs_per_op\": %s\n", allocs
    printf "  },\n"
    printf "  \"collector_ingest\": {\n"
    printf "    \"cpus\": %s,\n", maxprocs
    printf "    \"samples_per_s\": %s,\n", ingest
    printf "    \"ns_per_batch\": %s\n", ingestns
    printf "  },\n"
    printf "  \"shared_tap\": {\n"
    printf "    \"cpus\": %s,\n", maxprocs
    printf "    \"pkts_per_s\": %s,\n", tap
    printf "    \"ns_per_op\": %s,\n", tapns
    printf "    \"allocs_per_op\": %s\n", tapallocs
    printf "  },\n"
    printf "  \"hash_sample_tap\": {\n"
    printf "    \"cpus\": %s,\n", maxprocs
    printf "    \"pkts_per_s\": %s,\n", htap
    printf "    \"ns_per_op\": %s,\n", htapns
    printf "    \"allocs_per_op\": %s\n", htapallocs
    printf "  },\n"
    printf "  \"service_ingest\": {\n"
    printf "    \"cpus\": %s,\n", maxprocs
    printf "    \"conns\": 4,\n"
    printf "    \"samples_per_s\": %s,\n", svc
    printf "    \"ns_per_op\": %s\n", svcns
    printf "  },\n"
    printf "  \"fleet_ingest\": {\n"
    printf "    \"cpus\": %s,\n", maxprocs
    printf "    \"instances\": 4,\n"
    printf "    \"samples_per_s\": %s\n", fleet
    printf "  },\n"
    printf "  \"fleet_query\": {\n"
    printf "    \"cpus\": %s,\n", maxprocs
    printf "    \"instances\": 4,\n"
    printf "    \"ms_per_query\": %s\n", fleetq
    printf "  },\n"
    printf "  \"sketch_ingest\": {\n"
    printf "    \"cpus\": %s,\n", maxprocs
    printf "    \"samples_per_s\": %s,\n", sketch
    printf "    \"ns_per_add\": %s,\n", sketchns
    printf "    \"allocs_per_add\": %s\n", sketchallocs
    printf "  },\n"
    printf "  \"eviction_churn\": {\n"
    printf "    \"cpus\": %s,\n", maxprocs
    printf "    \"samples_per_s\": %s,\n", churn
    printf "    \"ns_per_batch\": %s\n", churnns
    printf "  },\n"
    printf "  \"parallel_sim\": {\n"
    printf "    \"cpus\": %s,\n", maxprocs
    printf "    \"scenario\": \"default\",\n"
    printf "    \"ns_per_run_sequential\": %s,\n", seqns
    printf "    \"allocs_per_run_sequential\": %s,\n", seqallocs
    printf "    \"ns_per_run_parallel_2\": %s,\n", parns2
    printf "    \"ns_per_run_parallel_4\": %s,\n", parns4
    printf "    \"speedup_2_partitions\": %.2f,\n", seqns / parns2
    printf "    \"speedup_4_partitions\": %.2f\n", seqns / parns4
    printf "  },\n"
    printf "  \"runner_scaling\": {\n"
    printf "    \"cpus\": %s,\n", maxprocs
    printf "    \"sweep_seeds\": 8,\n"
    printf "    \"ns_per_sweep_1_worker\": %s,\n", sweep1
    printf "    \"ns_per_sweep_4_workers\": %s,\n", sweep4
    printf "    \"speedup_4_workers\": %.2f,\n", sweep1 / sweep4
    printf "    \"sweep_median_rel_err\": %s,\n", sweeperr
    printf "    \"sweep_median_rel_err_ci95\": %s\n", sweepci
    printf "  },\n"
    printf "  \"figure_metrics\": {\n"
    printf "    \"base_util\": %s,\n", base
    printf "    \"adaptive_gap\": %s,\n", gap
    printf "    \"median_rel_err_93_static\": %s\n", err
    printf "  }\n"
    printf "}\n"
  }' > "$out"

echo "wrote $out" >&2
cat "$out"
