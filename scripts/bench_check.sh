#!/usr/bin/env bash
# bench_check.sh — guard against simulator-throughput regressions.
#
# Compares fresh simulator throughput (pkts/s) against the last committed
# BENCH_<N>.json (highest N) and fails when the fresh number falls more
# than 25% below the recorded one. Also gates simulator allocs/op (lower
# is better), collector ingest samples/s, the hash-sample tap (relative pkts/s plus an absolute
# 0-allocs/op gate on the keyed sampling path) and the speedup ratios (runner sweep at 4 workers, parallel
# engine at 2 partitions); speedup gates are skipped — with the reason
# logged — when either side was measured with fewer CPUs than the
# benchmark's workers, since such a ratio carries no scaling signal.
# CI's bench-smoke job runs this on every
# push; a genuine intentional regression is recorded by committing a new
# BENCH_<N>.json (scripts/bench.sh) or overridden one-off with -f.
#
# Usage:
#   scripts/bench_check.sh                 # run a short bench, then compare
#   scripts/bench_check.sh fresh.json      # compare a bench.sh-format JSON
#   scripts/bench_check.sh -f [...]        # report, but never fail
#   BENCH_CHECK_FORCE=1 scripts/bench_check.sh   # same as -f
#
# Exit codes: 0 ok / regression overridden, 1 regression, 2 usage/parse
# error.
set -euo pipefail
cd "$(dirname "$0")/.."

force="${BENCH_CHECK_FORCE:-0}"
fresh_file=""
for arg in "$@"; do
  case "$arg" in
    -f|--force) force=1 ;;
    -*) echo "bench_check: unknown flag $arg" >&2; exit 2 ;;
    *) fresh_file="$arg" ;;
  esac
done

# Threshold: fail when fresh < (100 - max_drop_pct)% of the baseline.
max_drop_pct=25

# pkts_from_json extracts simulator_throughput.pkts_per_s from a bench.sh
# JSON (no jq dependency; the simulator section is the file's first
# pkts_per_s).
pkts_from_json() {
  awk '/"pkts_per_s"/ { gsub(/[^0-9.eE+-]/, "", $2); print $2; exit }' "$1"
}

# collector_from_json extracts collector_ingest.samples_per_s (the sharded
# collector's batch ingest throughput, BenchmarkIngest).
collector_from_json() {
  awk '/"collector_ingest"/ { incol = 1 }
       incol && /"samples_per_s"/ { gsub(/[^0-9.eE+-]/, "", $2); print $2; exit }' "$1"
}

# tap_from_json extracts shared_tap.pkts_per_s (the estimator layer's
# shared dispatch throughput). Empty when the baseline predates the
# estimator layer.
tap_from_json() {
  awk '/"shared_tap"/ { intap = 1 }
       intap && /"pkts_per_s"/ { gsub(/[^0-9.eE+-]/, "", $2); print $2; exit }' "$1"
}

# hashtap_from_json extracts hash_sample_tap.pkts_per_s (the secret-key
# sampling tap's per-packet throughput). Empty when the baseline predates
# the adversarial scenario family.
hashtap_from_json() {
  awk '/"hash_sample_tap"/ { inht = 1 }
       inht && /"pkts_per_s"/ { gsub(/[^0-9.eE+-]/, "", $2); print $2; exit }' "$1"
}

# hashtapallocs_from_json extracts hash_sample_tap.allocs_per_op — gated
# at an absolute zero: a single allocation on the keyed sampling path
# would wreck the shared-tap hot loop.
hashtapallocs_from_json() {
  awk '/"hash_sample_tap"/ { inht = 1 }
       inht && /"allocs_per_op"/ { gsub(/[^0-9.eE+-]/, "", $2); print $2; exit }' "$1"
}

# service_from_json extracts service_ingest.samples_per_s (the streaming
# service's 4-connection ingest throughput). Empty when the baseline
# predates the service.
service_from_json() {
  awk '/"service_ingest"/ { insvc = 1 }
       insvc && /"samples_per_s"/ { gsub(/[^0-9.eE+-]/, "", $2); print $2; exit }' "$1"
}

# fleet_from_json extracts fleet_ingest.samples_per_s (aggregate ingest
# across the 4-instance partitioned fleet). Empty when the baseline
# predates the fleet tier.
fleet_from_json() {
  awk '/"fleet_ingest"/ { infl = 1 }
       infl && /"samples_per_s"/ { gsub(/[^0-9.eE+-]/, "", $2); print $2; exit }' "$1"
}

# fleetq_from_json extracts fleet_query.ms_per_query (the scatter-gather
# front-end's merged query latency; lower is better).
fleetq_from_json() {
  awk '/"fleet_query"/ { infq = 1 }
       infq && /"ms_per_query"/ { gsub(/[^0-9.eE+-]/, "", $2); print $2; exit }' "$1"
}

# sketch_from_json extracts sketch_ingest.samples_per_s (quantile-sketch
# Add throughput). Empty when the baseline predates the sketch tier.
sketch_from_json() {
  awk '/"sketch_ingest"/ { insk = 1 }
       insk && /"samples_per_s"/ { gsub(/[^0-9.eE+-]/, "", $2); print $2; exit }' "$1"
}

# churn_from_json extracts eviction_churn.samples_per_s (ingest throughput
# through a capped LRU flow table under full churn).
churn_from_json() {
  awk '/"eviction_churn"/ { inch = 1 }
       inch && /"samples_per_s"/ { gsub(/[^0-9.eE+-]/, "", $2); print $2; exit }' "$1"
}

# allocs_from_json extracts simulator_throughput.allocs_per_op (the
# simulator section is the file's first allocs_per_op). Lower is better;
# gated so a hot-path allocation creeping back in fails loudly.
allocs_from_json() {
  awk '/"simulator_throughput"/ { insim = 1 }
       insim && /"allocs_per_op"/ { gsub(/[^0-9.eE+-]/, "", $2); print $2; exit }' "$1"
}

# sweepspeed_from_json extracts runner_scaling.speedup_4_workers (the
# 8-seed sweep's 1-worker/4-worker wall-clock ratio).
sweepspeed_from_json() {
  awk '/"runner_scaling"/ { inrs = 1 }
       inrs && /"speedup_4_workers"/ { gsub(/[^0-9.eE+-]/, "", $2); print $2; exit }' "$1"
}

# parspeed_from_json extracts parallel_sim.speedup_2_partitions (the
# conservative parallel engine's 2-partition speedup over sequential).
# Empty when the baseline predates the parallel engine.
parspeed_from_json() {
  awk '/"parallel_sim"/ { inps = 1 }
       inps && /"speedup_2_partitions"/ { gsub(/[^0-9.eE+-]/, "", $2); print $2; exit }' "$1"
}

# seccpus_from_json <file> <section> extracts the CPU count a section's
# numbers were measured with, falling back to the file's top-level "cpus"
# for baselines that predate per-section recording. Speedup ratios are
# meaningless on a box with fewer CPUs than workers, so gates consult this
# before failing anyone.
seccpus_from_json() {
  c=$(awk -v sec="\"$2\"" '$0 ~ sec { insec = 1 }
       insec && /"cpus"/ { gsub(/[^0-9]/, "", $2); print $2; exit }' "$1")
  if [ -z "$c" ]; then
    c=$(awk '/"cpus"/ { gsub(/[^0-9]/, "", $2); print $2; exit }' "$1")
  fi
  echo "${c:-1}"
}

base_file=$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1 || true)
if [ -z "$base_file" ]; then
  echo "bench_check: no committed BENCH_*.json baseline; nothing to compare" >&2
  exit 0
fi
base=$(pkts_from_json "$base_file")
if [ -z "$base" ]; then
  echo "bench_check: could not parse pkts_per_s from $base_file" >&2
  exit 2
fi

base_collector=$(collector_from_json "$base_file")
base_tap=$(tap_from_json "$base_file")
base_hashtap=$(hashtap_from_json "$base_file")
base_svc=$(service_from_json "$base_file")
base_fleet=$(fleet_from_json "$base_file")
base_fleetq=$(fleetq_from_json "$base_file")
base_sketch=$(sketch_from_json "$base_file")
base_churn=$(churn_from_json "$base_file")
base_allocs=$(allocs_from_json "$base_file")
base_sweep=$(sweepspeed_from_json "$base_file")
base_parspeed=$(parspeed_from_json "$base_file")
ncpu=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

if [ -n "$fresh_file" ]; then
  fresh=$(pkts_from_json "$fresh_file")
  fresh_collector=$(collector_from_json "$fresh_file")
  fresh_tap=$(tap_from_json "$fresh_file")
  fresh_hashtap=$(hashtap_from_json "$fresh_file")
  fresh_hashtap_allocs=$(hashtapallocs_from_json "$fresh_file")
  fresh_svc=$(service_from_json "$fresh_file")
  fresh_fleet=$(fleet_from_json "$fresh_file")
  fresh_fleetq=$(fleetq_from_json "$fresh_file")
  fresh_sketch=$(sketch_from_json "$fresh_file")
  fresh_churn=$(churn_from_json "$fresh_file")
  fresh_allocs=$(allocs_from_json "$fresh_file")
  fresh_sweep=$(sweepspeed_from_json "$fresh_file")
  fresh_parspeed=$(parspeed_from_json "$fresh_file")
  # Speedup gates judge the fresh file by the CPUs it was measured with,
  # not this box's.
  sweep_cpus=$(seccpus_from_json "$fresh_file" runner_scaling)
  par_cpus=$(seccpus_from_json "$fresh_file" parallel_sim)
  if [ -n "$base_collector" ] && [ -z "$fresh_collector" ]; then
    echo "bench_check: baseline $base_file has collector_ingest but $fresh_file does not; refusing to skip the gate" >&2
    exit 2
  fi
  if [ -n "$base_tap" ] && [ -z "$fresh_tap" ]; then
    echo "bench_check: baseline $base_file has shared_tap but $fresh_file does not; refusing to skip the gate" >&2
    exit 2
  fi
  if [ -n "$base_hashtap" ] && [ -z "$fresh_hashtap" ]; then
    echo "bench_check: baseline $base_file has hash_sample_tap but $fresh_file does not; refusing to skip the gate" >&2
    exit 2
  fi
  if [ -n "$base_svc" ] && [ -z "$fresh_svc" ]; then
    echo "bench_check: baseline $base_file has service_ingest but $fresh_file does not; refusing to skip the gate" >&2
    exit 2
  fi
  if [ -n "$base_fleet" ] && { [ -z "$fresh_fleet" ] || [ -z "$fresh_fleetq" ]; }; then
    echo "bench_check: baseline $base_file has fleet metrics but $fresh_file does not; refusing to skip the gate" >&2
    exit 2
  fi
  if { [ -n "$base_sketch" ] && [ -z "$fresh_sketch" ]; } || { [ -n "$base_churn" ] && [ -z "$fresh_churn" ]; }; then
    echo "bench_check: baseline $base_file has bounded-aggregation metrics but $fresh_file does not; refusing to skip the gate" >&2
    exit 2
  fi
  if [ -n "$base_allocs" ] && [ -z "$fresh_allocs" ]; then
    echo "bench_check: baseline $base_file has allocs_per_op but $fresh_file does not; refusing to skip the gate" >&2
    exit 2
  fi
  if [ -n "$base_parspeed" ] && [ -z "$fresh_parspeed" ]; then
    echo "bench_check: baseline $base_file has parallel_sim but $fresh_file does not; refusing to skip the gate" >&2
    exit 2
  fi
  src="$fresh_file"
else
  echo "bench_check: measuring simulator throughput (3 iterations)..." >&2
  raw=$(go test -run '^$' -bench 'BenchmarkSimulatorThroughput$' -benchmem -benchtime 3x . 2>&1)
  echo "$raw" | grep -E '^Benchmark' >&2 || true
  fresh=$(echo "$raw" | awk '/^BenchmarkSimulatorThroughput/ {
    for (i = 1; i < NF; i++) if ($(i + 1) == "pkts/s") print $i
  }' | tail -1)
  fresh_allocs=$(echo "$raw" | awk '/^BenchmarkSimulatorThroughput/ {
    for (i = 1; i < NF; i++) if ($(i + 1) == "allocs/op") print $i
  }' | tail -1)
  if [ -n "$base_allocs" ] && [ -z "$fresh_allocs" ]; then
    echo "bench_check: no allocs/op number parsed from local bench" >&2
    exit 2
  fi
  fresh_collector=""
  if [ -n "$base_collector" ]; then
    echo "bench_check: measuring collector ingest throughput..." >&2
    raw_col=$(go test -run '^$' -bench 'BenchmarkIngest$' ./internal/collector 2>&1)
    echo "$raw_col" | grep -E '^Benchmark' >&2 || true
    fresh_collector=$(echo "$raw_col" | awk '/^BenchmarkIngest-/ || /^BenchmarkIngest / {
      for (i = 1; i < NF; i++) if ($(i + 1) == "samples/s") print $i
    }' | tail -1)
    if [ -z "$fresh_collector" ]; then
      echo "bench_check: no collector ingest number parsed from local bench" >&2
      exit 2
    fi
  fi
  fresh_tap=""
  if [ -n "$base_tap" ]; then
    echo "bench_check: measuring shared-tap dispatch throughput..." >&2
    raw_tap=$(go test -run '^$' -bench 'BenchmarkSharedTap$' ./internal/measure 2>&1)
    echo "$raw_tap" | grep -E '^Benchmark' >&2 || true
    fresh_tap=$(echo "$raw_tap" | awk '/^BenchmarkSharedTap/ {
      for (i = 1; i < NF; i++) if ($(i + 1) == "pkts/s") print $i
    }' | tail -1)
    if [ -z "$fresh_tap" ]; then
      echo "bench_check: no shared-tap number parsed from local bench" >&2
      exit 2
    fi
  fi
  fresh_hashtap=""
  fresh_hashtap_allocs=""
  if [ -n "$base_hashtap" ]; then
    echo "bench_check: measuring hash-sample tap throughput..." >&2
    raw_htap=$(go test -run '^$' -bench 'BenchmarkHashSampleTap$' -benchmem ./internal/measure 2>&1)
    echo "$raw_htap" | grep -E '^Benchmark' >&2 || true
    fresh_hashtap=$(echo "$raw_htap" | awk '/^BenchmarkHashSampleTap/ {
      for (i = 1; i < NF; i++) if ($(i + 1) == "pkts/s") print $i
    }' | tail -1)
    fresh_hashtap_allocs=$(echo "$raw_htap" | awk '/^BenchmarkHashSampleTap/ {
      for (i = 1; i < NF; i++) if ($(i + 1) == "allocs/op") print $i
    }' | tail -1)
    if [ -z "$fresh_hashtap" ] || [ -z "$fresh_hashtap_allocs" ]; then
      echo "bench_check: no hash-sample tap numbers parsed from local bench" >&2
      exit 2
    fi
  fi
  fresh_svc=""
  if [ -n "$base_svc" ]; then
    echo "bench_check: measuring service ingest throughput (4 conns)..." >&2
    raw_svc=$(go test -run '^$' -bench 'BenchmarkServiceIngest4Conns$' ./internal/service 2>&1)
    echo "$raw_svc" | grep -E '^Benchmark' >&2 || true
    fresh_svc=$(echo "$raw_svc" | awk '/^BenchmarkServiceIngest4Conns/ {
      for (i = 1; i < NF; i++) if ($(i + 1) == "samples/s") print $i
    }' | tail -1)
    if [ -z "$fresh_svc" ]; then
      echo "bench_check: no service ingest number parsed from local bench" >&2
      exit 2
    fi
  fi
  fresh_fleet=""
  fresh_fleetq=""
  if [ -n "$base_fleet" ]; then
    echo "bench_check: measuring fleet ingest + scatter-gather query..." >&2
    raw_fleet=$(go test -run '^$' -bench 'BenchmarkFleetIngest4x$|BenchmarkFleetScatterGather$' ./internal/fleet 2>&1)
    echo "$raw_fleet" | grep -E '^Benchmark' >&2 || true
    fresh_fleet=$(echo "$raw_fleet" | awk '/^BenchmarkFleetIngest4x/ {
      for (i = 1; i < NF; i++) if ($(i + 1) == "samples/s") print $i
    }' | tail -1)
    fresh_fleetq=$(echo "$raw_fleet" | awk '/^BenchmarkFleetScatterGather/ {
      for (i = 1; i < NF; i++) if ($(i + 1) == "ms/query") print $i
    }' | tail -1)
    if [ -z "$fresh_fleet" ] || [ -z "$fresh_fleetq" ]; then
      echo "bench_check: no fleet numbers parsed from local bench" >&2
      exit 2
    fi
  fi
  fresh_sketch=""
  if [ -n "$base_sketch" ]; then
    echo "bench_check: measuring sketch ingest throughput..." >&2
    raw_sketch=$(go test -run '^$' -bench 'BenchmarkSketchAdd$' ./internal/stats 2>&1)
    echo "$raw_sketch" | grep -E '^Benchmark' >&2 || true
    fresh_sketch=$(echo "$raw_sketch" | awk '/^BenchmarkSketchAdd/ {
      for (i = 1; i < NF; i++) if ($(i + 1) == "samples/s") print $i
    }' | tail -1)
    if [ -z "$fresh_sketch" ]; then
      echo "bench_check: no sketch ingest number parsed from local bench" >&2
      exit 2
    fi
  fi
  fresh_churn=""
  if [ -n "$base_churn" ]; then
    echo "bench_check: measuring eviction-churn throughput..." >&2
    raw_churn=$(go test -run '^$' -bench 'BenchmarkEvictionChurn$' ./internal/collector 2>&1)
    echo "$raw_churn" | grep -E '^Benchmark' >&2 || true
    fresh_churn=$(echo "$raw_churn" | awk '/^BenchmarkEvictionChurn/ {
      for (i = 1; i < NF; i++) if ($(i + 1) == "samples/s") print $i
    }' | tail -1)
    if [ -z "$fresh_churn" ]; then
      echo "bench_check: no eviction-churn number parsed from local bench" >&2
      exit 2
    fi
  fi
  # Speedup measurements only make sense when this box has at least as many
  # CPUs as the benchmark's workers/partitions; on a smaller box we skip the
  # measurement (and so the gate) with the reason on record.
  fresh_sweep=""
  sweep_cpus="$ncpu"
  if [ -n "$base_sweep" ]; then
    if [ "$ncpu" -lt 4 ]; then
      echo "bench_check: skipping runner-scaling speedup gate: $ncpu CPUs < 4 workers (nothing to scale onto)" >&2
    else
      echo "bench_check: measuring runner sweep scaling (1 vs 4 workers)..." >&2
      raw_sweep=$(go test -run '^$' -bench 'BenchmarkRunnerSweep[14]$' -benchtime 3x . 2>&1)
      echo "$raw_sweep" | grep -E '^Benchmark' >&2 || true
      s1=$(echo "$raw_sweep" | awk '/^BenchmarkRunnerSweep1/ {
        for (i = 1; i < NF; i++) if ($(i + 1) == "ns/op") print $i
      }' | tail -1)
      s4=$(echo "$raw_sweep" | awk '/^BenchmarkRunnerSweep4/ {
        for (i = 1; i < NF; i++) if ($(i + 1) == "ns/op") print $i
      }' | tail -1)
      if [ -z "$s1" ] || [ -z "$s4" ]; then
        echo "bench_check: no runner-scaling numbers parsed from local bench" >&2
        exit 2
      fi
      fresh_sweep=$(awk -v a="$s1" -v b="$s4" 'BEGIN { printf "%.2f", a / b }')
    fi
  fi
  fresh_parspeed=""
  par_cpus="$ncpu"
  if [ -n "$base_parspeed" ]; then
    if [ "$ncpu" -lt 2 ]; then
      echo "bench_check: skipping parallel-engine speedup gate: $ncpu CPUs < 2 partitions (nothing to scale onto)" >&2
    else
      echo "bench_check: measuring parallel-engine speedup (2 partitions)..." >&2
      raw_par=$(go test -run '^$' -bench 'BenchmarkScenarioSequential$|BenchmarkScenarioParallel2$' -benchtime 2x . 2>&1)
      echo "$raw_par" | grep -E '^Benchmark' >&2 || true
      pseq=$(echo "$raw_par" | awk '/^BenchmarkScenarioSequential/ {
        for (i = 1; i < NF; i++) if ($(i + 1) == "ns/op") print $i
      }' | tail -1)
      ppar=$(echo "$raw_par" | awk '/^BenchmarkScenarioParallel2/ {
        for (i = 1; i < NF; i++) if ($(i + 1) == "ns/op") print $i
      }' | tail -1)
      if [ -z "$pseq" ] || [ -z "$ppar" ]; then
        echo "bench_check: no parallel-engine numbers parsed from local bench" >&2
        exit 2
      fi
      fresh_parspeed=$(awk -v a="$pseq" -v b="$ppar" 'BEGIN { printf "%.2f", a / b }')
    fi
  fi
  src="local bench"
fi
if [ -z "$fresh" ]; then
  echo "bench_check: no throughput number parsed from $src" >&2
  exit 2
fi

# compare_lower <label> <fresh> <base> <unit>: the latency variant —
# lower is better, so the regression is fresh rising more than
# max_drop_pct above the baseline.
compare_lower() {
  awk -v label="$1" -v fresh="$2" -v base="$3" -v unit="$4" \
      -v drop="$max_drop_pct" -v basefile="$base_file" -v force="$force" 'BEGIN {
    ceil = base * (100 + drop) / 100
    ratio = base > 0 ? 100 * fresh / base : 0
    printf "bench_check: %s fresh %.3f %s vs baseline %.3f %s (%s) = %.1f%%\n",
      label, fresh, unit, base, unit, basefile, ratio
    if (fresh > ceil) {
      printf "bench_check: REGRESSION: %s above the %d%%-rise ceiling (%.3f %s; lower is better)\n", label, drop, ceil, unit
      if (force == "1") {
        print "bench_check: override in effect (-f / BENCH_CHECK_FORCE=1); not failing"
        exit 0
      }
      print "bench_check: if intentional, commit a new BENCH_<N>.json (scripts/bench.sh) or rerun with -f"
      exit 1
    }
  }'
}

# compare <label> <fresh> <base> [unit]: prints the ratio, returns 1 on a
# regression past the floor (unless forced).
compare() {
  awk -v label="$1" -v fresh="$2" -v base="$3" -v unit="${4:-pkts/s}" \
      -v drop="$max_drop_pct" -v basefile="$base_file" -v force="$force" 'BEGIN {
    floor = base * (100 - drop) / 100
    ratio = base > 0 ? 100 * fresh / base : 0
    printf "bench_check: %s fresh %.0f %s vs baseline %.0f %s (%s) = %.1f%%\n",
      label, fresh, unit, base, unit, basefile, ratio
    if (fresh < floor) {
      printf "bench_check: REGRESSION: %s below the %d%%-drop floor (%.0f %s)\n", label, drop, floor, unit
      if (force == "1") {
        print "bench_check: override in effect (-f / BENCH_CHECK_FORCE=1); not failing"
        exit 0
      }
      print "bench_check: if intentional, commit a new BENCH_<N>.json (scripts/bench.sh) or rerun with -f"
      exit 1
    }
  }'
}

status=0
compare "simulator" "$fresh" "$base" || status=1
if [ -n "$base_collector" ] && [ -n "$fresh_collector" ]; then
  compare "collector-ingest" "$fresh_collector" "$base_collector" "samples/s" || status=1
fi
if [ -n "$base_tap" ] && [ -n "$fresh_tap" ]; then
  compare "shared-tap" "$fresh_tap" "$base_tap" || status=1
fi
if [ -n "$base_hashtap" ] && [ -n "$fresh_hashtap" ]; then
  compare "hash-sample-tap" "$fresh_hashtap" "$base_hashtap" || status=1
  # The allocation gate is absolute, not relative: the keyed sampling path
  # must stay at exactly zero allocations per packet.
  if [ -n "$fresh_hashtap_allocs" ]; then
    awk -v a="$fresh_hashtap_allocs" -v force="$force" 'BEGIN {
      printf "bench_check: hash-sample-tap %.0f allocs/op (gate: 0)\n", a
      if (a + 0 != 0) {
        print "bench_check: REGRESSION: hash-sample tap allocates on the per-packet path"
        if (force == "1") { print "bench_check: override in effect; not failing"; exit 0 }
        exit 1
      }
    }' || status=1
  fi
fi
if [ -n "$base_svc" ] && [ -n "$fresh_svc" ]; then
  compare "service-ingest" "$fresh_svc" "$base_svc" "samples/s" || status=1
  # The soak acceptance floor is absolute, not relative: the service must
  # sustain >= 1M samples/s over 4 connections on any box this runs on.
  awk -v svc="$fresh_svc" -v force="$force" 'BEGIN {
    if (svc < 1e6) {
      printf "bench_check: service ingest %.0f samples/s below the 1M samples/s soak floor\n", svc
      if (force == "1") { print "bench_check: override in effect; not failing"; exit 0 }
      exit 1
    }
  }' || status=1
fi
if [ -n "$base_fleet" ] && [ -n "$fresh_fleet" ]; then
  compare "fleet-ingest" "$fresh_fleet" "$base_fleet" "samples/s" || status=1
fi
if [ -n "$base_fleetq" ] && [ -n "$fresh_fleetq" ]; then
  compare_lower "fleet-query" "$fresh_fleetq" "$base_fleetq" "ms/query" || status=1
fi
if [ -n "$base_sketch" ] && [ -n "$fresh_sketch" ]; then
  compare "sketch-ingest" "$fresh_sketch" "$base_sketch" "samples/s" || status=1
fi
if [ -n "$base_churn" ] && [ -n "$fresh_churn" ]; then
  compare "eviction-churn" "$fresh_churn" "$base_churn" "samples/s" || status=1
fi
if [ -n "$base_allocs" ] && [ -n "$fresh_allocs" ]; then
  compare_lower "simulator-allocs" "$fresh_allocs" "$base_allocs" "allocs/op" || status=1
fi
# Speedup gates. A ratio measured with fewer CPUs than workers/partitions
# carries no scaling signal, so both the fresh and the baseline side must
# have been measured on enough cores; otherwise the gate is skipped with
# the reason logged rather than failing an honest single-core run.
if [ -n "$base_sweep" ] && [ -n "$fresh_sweep" ]; then
  base_sweep_cpus=$(seccpus_from_json "$base_file" runner_scaling)
  if [ "$sweep_cpus" -lt 4 ]; then
    echo "bench_check: skipping runner-scaling speedup gate: measured on $sweep_cpus CPUs < 4 workers"
  elif [ "$base_sweep_cpus" -lt 4 ]; then
    echo "bench_check: skipping runner-scaling speedup gate: baseline $base_file measured on $base_sweep_cpus CPUs < 4 workers (no scaling baseline)"
  else
    compare "runner-speedup" "$fresh_sweep" "$base_sweep" "x" || status=1
  fi
fi
if [ -n "$fresh_parspeed" ]; then
  if [ "$par_cpus" -lt 2 ]; then
    echo "bench_check: skipping parallel-engine speedup gate: measured on $par_cpus CPUs < 2 partitions"
  else
    # Absolute floor from the acceptance bar: the conservative engine must
    # deliver >= 1.7x at 2 partitions whenever 2 cores exist to run on.
    awk -v sp="$fresh_parspeed" -v force="$force" 'BEGIN {
      printf "bench_check: parallel-engine speedup %.2fx at 2 partitions (floor 1.70x)\n", sp
      if (sp < 1.7) {
        print "bench_check: REGRESSION: parallel-engine speedup below the 1.7x floor"
        if (force == "1") { print "bench_check: override in effect; not failing"; exit 0 }
        exit 1
      }
    }' || status=1
    if [ -n "$base_parspeed" ]; then
      base_par_cpus=$(seccpus_from_json "$base_file" parallel_sim)
      if [ "$base_par_cpus" -lt 2 ]; then
        echo "bench_check: skipping parallel-engine relative gate: baseline $base_file measured on $base_par_cpus CPUs < 2 partitions (no scaling baseline)"
      else
        compare "parallel-speedup" "$fresh_parspeed" "$base_parspeed" "x" || status=1
      fi
    fi
  fi
fi
if [ "$status" -eq 0 ]; then
  echo "bench_check: ok"
fi
exit "$status"
