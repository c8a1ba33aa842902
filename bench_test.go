// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus the repository's ablations. Each benchmark runs the corresponding
// experiment at a small scale and reports the paper's headline metric
// through b.ReportMetric, so `go test -bench=. -benchmem` reproduces the
// evaluation end to end:
//
//	BenchmarkFig4a  — Figure 4(a): mean-estimate accuracy CDFs
//	BenchmarkFig4b  — Figure 4(b): stddev-estimate accuracy CDFs
//	BenchmarkFig4c  — Figure 4(c): bursty vs random cross traffic
//	BenchmarkFig5   — Figure 5: reference-packet interference
//	BenchmarkTablePlacement — §3.1 deployment complexity table
//	BenchmarkScalars        — §4.2 quoted scalars
//	BenchmarkAblation*      — DESIGN.md A1/A2/A3, B1
//
// The figures' textual renderings are printed once per benchmark (use
// cmd/experiments for the full-scale versions).
package rlir_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	rlir "github.com/netmeasure/rlir"
	"github.com/netmeasure/rlir/internal/scenario"
)

// benchScale keeps benchmark iterations affordable; cmd/experiments runs
// the same harnesses at -scale default/full.
func benchScale() rlir.Scale {
	return rlir.SmallScale()
}

// printOnce guards the one-time rendering of each figure.
var printOnce sync.Map

func renderOnce(key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Print(text)
	}
}

// metricUnit turns a series label into a ReportMetric-safe unit (no
// whitespace).
func metricUnit(prefix, label string) string {
	return prefix + "/" + strings.ReplaceAll(strings.ReplaceAll(label, " ", ""), ",", "_")
}

func BenchmarkFig4a(b *testing.B) {
	var fig rlir.Figure
	for i := 0; i < b.N; i++ {
		fig = rlir.Fig4a(benchScale())
	}
	renderOnce("4a", fig.Render())
	for _, s := range fig.Series {
		if s.CDF.N() > 0 {
			b.ReportMetric(s.CDF.Median(), metricUnit("medianRelErr", s.Label))
		}
	}
}

func BenchmarkFig4b(b *testing.B) {
	var fig rlir.Figure
	for i := 0; i < b.N; i++ {
		fig = rlir.Fig4b(benchScale())
	}
	renderOnce("4b", fig.Render())
	for _, s := range fig.Series {
		if s.CDF.N() > 0 {
			b.ReportMetric(s.CDF.FracBelow(0.10), metricUnit("under10pct", s.Label))
		}
	}
}

func BenchmarkFig4c(b *testing.B) {
	var fig rlir.Figure
	for i := 0; i < b.N; i++ {
		fig = rlir.Fig4c(benchScale())
	}
	renderOnce("4c", fig.Render())
	for _, s := range fig.Series {
		if s.CDF.N() > 0 {
			b.ReportMetric(s.CDF.Median(), metricUnit("medianRelErr", s.Label))
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	// Interference is a ~1% systematic effect on top of chaotic queue
	// noise; a longer trace with a tight queue gives enough drop events
	// for the signal to dominate (same configuration the shape test uses).
	scale := benchScale()
	scale.Duration = time.Second
	scale.QueueBytes = 32 << 10
	var res rlir.Fig5Result
	for i := 0; i < b.N; i++ {
		res = rlir.Fig5(scale, []float64{0.9, 0.98})
	}
	renderOnce("5", res.Render())
	last := res.Points[len(res.Points)-1]
	b.ReportMetric(last.AdaptiveDiff, "adaptiveLossDiff@98")
	b.ReportMetric(last.StaticDiff, "staticLossDiff@98")
}

func BenchmarkTablePlacement(b *testing.B) {
	var rows []rlir.PlacementRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = rlir.PlacementTable([]int{4, 8, 16, 32, 48})
		if err != nil {
			b.Fatal(err)
		}
	}
	renderOnce("placement", rlir.FormatPlacementTable(rows))
	b.ReportMetric(float64(rows[0].PairOfInterfaces), "instances/k4-pair")
	b.ReportMetric(rows[len(rows)-1].Reduction, "savings/k48")
}

func BenchmarkScalars(b *testing.B) {
	var s rlir.Scalars
	for i := 0; i < b.N; i++ {
		s = rlir.RunScalars(benchScale())
	}
	renderOnce("scalars", s.Render())
	b.ReportMetric(s.BaseUtil, "baseUtil")
	b.ReportMetric(float64(s.AdaptiveGap), "adaptiveGap")
	b.ReportMetric(s.Median93Static, "medianRelErr@93static")
}

func BenchmarkAblationEstimators(b *testing.B) {
	var rows []rlir.EstimatorRow
	for i := 0; i < b.N; i++ {
		rows = rlir.AblationEstimators(benchScale(), 0.8)
	}
	renderOnce("A2", rlir.RenderEstimators(rows))
	for _, r := range rows {
		b.ReportMetric(r.MedianRelErr, "medianRelErr/"+r.Estimator.String())
	}
}

func BenchmarkAblationClocks(b *testing.B) {
	var rows []rlir.ClockRow
	for i := 0; i < b.N; i++ {
		rows = rlir.AblationClocks(benchScale(), 0.8)
	}
	renderOnce("A3", rlir.RenderClocks(rows))
	b.ReportMetric(rows[0].MedianRelErr, "medianRelErr/perfect")
	b.ReportMetric(rows[3].MedianRelErr, "medianRelErr/offset100us")
}

func BenchmarkBaselines(b *testing.B) {
	var r rlir.BaselineResult
	for i := 0; i < b.N; i++ {
		r = rlir.RunBaselines(benchScale(), 0.93)
	}
	renderOnce("B1", r.Render())
	b.ReportMetric(r.RLIRMedian, "medianRelErr/rlir")
	b.ReportMetric(r.MultiflowMedian, "medianRelErr/multiflow")
	b.ReportMetric(r.LDAMeanErr, "aggErr/lda")
}

func BenchmarkLocalization(b *testing.B) {
	cfg := rlir.DefaultLocalizationConfig()
	cfg.Spec.Duration = benchScale().Duration / 2
	cfg.Spec.Faults[0].End = cfg.Spec.Duration
	var res *rlir.LocalizationResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = rlir.RunLocalization(cfg); err != nil {
			b.Fatal(err)
		}
	}
	renderOnce("L1", res.Render())
	ok := 0.0
	if res.Localized() {
		ok = 1
	}
	b.ReportMetric(ok, "localized")
}

// benchmarkRunnerSweep measures the multi-seed runner: an 8-seed tandem
// sweep (per-run telemetry merged through the collector plane) at the given
// worker count. BenchmarkRunnerSweep1 vs BenchmarkRunnerSweep4 gives the
// parallel-scaling ratio scripts/bench.sh records in BENCH_N.json; on a
// multi-core machine 4 workers should approach 4x, and the ratio degrades
// to ~1x only when the hardware offers a single core.
func benchmarkRunnerSweep(b *testing.B, workers int) {
	cfg := rlir.TandemConfig{
		Scale:      benchScale(),
		Scheme:     rlir.DefaultStatic(),
		Model:      rlir.CrossUniform,
		TargetUtil: 0.93,
	}
	var r rlir.MultiTandemResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r = rlir.MultiTandem(cfg, rlir.MultiOpts{Seeds: 8, Workers: workers})
	}
	b.ReportMetric(float64(len(r.Merged)), "mergedFlows")
	b.ReportMetric(r.MedianRelErr.Mean, "medianRelErr")
	b.ReportMetric(r.MedianRelErr.CI95, "medianRelErrCI95")
}

func BenchmarkRunnerSweep1(b *testing.B) { benchmarkRunnerSweep(b, 1) }
func BenchmarkRunnerSweep4(b *testing.B) { benchmarkRunnerSweep(b, 4) }

// benchmarkScenarioEngine pushes the default fat-tree scenario (converging
// workload, K=4) end to end through the selected event engine. Sequential vs
// Parallel2/Parallel4 gives the conservative parallel engine's speedup ratio
// that scripts/bench.sh records in BENCH_N.json's parallel_sim section. The
// engines produce bit-identical Results (internal/scenario
// TestParallelBitIdenticalRegistry), so the ratio measures pure engine
// scaling; on a single-core box it degrades to ~1x or below (window-barrier
// overhead with no parallelism to pay for it).
func benchmarkScenarioEngine(b *testing.B, engine string, partitions int) {
	spec := scenario.DefaultSpec()
	spec.Duration = 60 * time.Millisecond
	spec.Engine = engine
	spec.Partitions = partitions
	if err := spec.Validate(); err != nil {
		b.Fatal(err)
	}
	var injected uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := scenario.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		injected += uint64(r.Injected)
	}
	b.ReportMetric(float64(injected)/b.Elapsed().Seconds(), "pkts/s")
}

func BenchmarkScenarioSequential(b *testing.B) {
	benchmarkScenarioEngine(b, scenario.EngineSequential, 0)
}
func BenchmarkScenarioParallel2(b *testing.B) { benchmarkScenarioEngine(b, scenario.EngineParallel, 2) }
func BenchmarkScenarioParallel4(b *testing.B) { benchmarkScenarioEngine(b, scenario.EngineParallel, 4) }

// BenchmarkSimulatorThroughput measures raw simulator speed: packets pushed
// through the instrumented tandem per second of wall clock — the
// engineering metric that bounds how large a trace the harness can replay.
func BenchmarkSimulatorThroughput(b *testing.B) {
	scale := benchScale()
	var packets uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rlir.RunTandem(rlir.TandemConfig{
			Scale:      scale,
			Scheme:     rlir.DefaultStatic(),
			Model:      rlir.CrossUniform,
			TargetUtil: 0.93,
		})
		packets += r.RegularOffered + r.CrossAdmitted
	}
	b.ReportMetric(float64(packets)/b.Elapsed().Seconds(), "pkts/s")
}
