package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/runner"
	"github.com/netmeasure/rlir/internal/stats"
)

// This file upgrades the repository's figures and ablations from single-seed
// point estimates to multi-seed mean ± CI: every harness below fans N
// independent simulations (seeds derived via SplitMix64 from the scenario's
// base seed) across workers with internal/runner and aggregates each
// headline metric across seeds. Per-run per-flow telemetry merges through
// the collector plane, so sweeps also produce the fleet-level flow table an
// operator would see.

// column folds column i of per-seed metric rows into a stats.MetricCI.
func column(rows [][]float64, i int) stats.MetricCI {
	xs := make([]float64, 0, len(rows))
	for _, r := range rows {
		if i < len(r) {
			xs = append(xs, r[i])
		}
	}
	return stats.MetricOf(xs)
}

// ---- Multi-seed tandem ----

// MultiTandemResult aggregates one tandem configuration across seeds.
type MultiTandemResult struct {
	Config  TandemConfig
	Seeds   []int64
	PerSeed []core.Summary
	// Across-seed distributions of the run's headline scalars.
	MedianRelErr, P90RelErr, FracUnder10Pct stats.MetricCI
	AchievedUtil                            stats.MetricCI
	TrueMeanDelayUs                         stats.MetricCI
	// Merged is the fleet-level per-flow aggregate: each run streams its
	// estimates into a per-run collector plane; snapshots merge in seed
	// order (deterministic for any worker count).
	Merged []collector.FlowAgg
}

// MultiTandem runs cfg at opts.Seeds derived seeds in parallel. A
// caller-supplied cfg.OnEstimate still fires for every estimate (chained
// after the sweep's own collector sink) and is serialized with a mutex, so
// a single-threaded hook — the way the hook is used everywhere else —
// remains safe under parallel runs; calls may interleave across seeds in a
// nondeterministic order.
func MultiTandem(cfg TandemConfig, opts runner.MultiOpts) MultiTandemResult {
	seeds := opts.SeedsFrom(cfg.Scale.Seed)
	type runOut struct {
		sum  core.Summary
		util float64
		snap []collector.FlowAgg
	}
	var callerMu sync.Mutex
	outs := runner.Map(seeds, opts.Workers, func(i int, seed int64) runOut {
		c := collector.New(collector.Config{Shards: 2})
		sink := runner.NewSink(c, 0)
		rc := cfg
		rc.Scale.Seed = seed
		if caller := cfg.OnEstimate; caller != nil {
			// Chain rather than replace a caller-supplied export hook.
			rc.OnEstimate = func(key packet.FlowKey, est, truth time.Duration) {
				sink.Add(key, est, truth)
				callerMu.Lock()
				caller(key, est, truth)
				callerMu.Unlock()
			}
		} else {
			rc.OnEstimate = sink.Add
		}
		r := RunTandem(rc)
		sink.Flush()
		snap := c.Snapshot()
		c.Close()
		return runOut{sum: r.Summary, util: r.AchievedUtil, snap: snap}
	})

	res := MultiTandemResult{Config: cfg, Seeds: seeds}
	var rows [][]float64
	snaps := make([][]collector.FlowAgg, len(outs))
	for i, o := range outs {
		res.PerSeed = append(res.PerSeed, o.sum)
		rows = append(rows, []float64{
			o.sum.MedianRelErr, o.sum.P90RelErr, o.sum.FracUnder10Pct,
			o.util, float64(o.sum.TrueMeanDelay) / float64(time.Microsecond),
		})
		snaps[i] = o.snap
	}
	res.MedianRelErr = column(rows, 0)
	res.P90RelErr = column(rows, 1)
	res.FracUnder10Pct = column(rows, 2)
	res.AchievedUtil = column(rows, 3)
	res.TrueMeanDelayUs = column(rows, 4)
	res.Merged = collector.Merge(snaps...)
	return res
}

// ---- Multi-seed figures (4a/4b/4c) ----

// MultiSeries is one figure curve summarized across seeds.
type MultiSeries struct {
	Label                       string
	Median, P90, FracUnder10Pct stats.MetricCI
}

// MultiFigure is a figure re-recorded as across-seed statistics: instead of
// one CDF per series it reports each series' headline quantiles as
// mean ± CI over the seeds.
type MultiFigure struct {
	ID, Title string
	SeedCount int
	Series    []MultiSeries
	Notes     []string
}

// Render draws the across-seed figure table.
func (f MultiFigure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s (mean ±95%% CI over %d seeds) ==\n", f.ID, f.Title, f.SeedCount)
	fmt.Fprintf(&b, "%-28s %-18s %-18s %-18s\n", "series", "medianRelErr", "p90RelErr", "fracUnder10%")
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%-28s %-18s %-18s %-18s", s.Label, s.Median, s.P90, s.FracUnder10Pct)
		if s.Median.N < f.SeedCount {
			// Seeds whose series CDF was empty are excluded from the stats;
			// surface the effective n instead of claiming the full count.
			fmt.Fprintf(&b, " (n=%d)", s.Median.N)
		}
		b.WriteByte('\n')
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// multiFigure fans a single-seed figure harness across seeds and folds each
// series' quantiles. Series identity (label, order) is seed-invariant, so
// series are matched by index.
func multiFigure(fig func(Scale) Figure, scale Scale, opts runner.MultiOpts) MultiFigure {
	seeds := opts.SeedsFrom(scale.Seed)
	figs := runner.Map(seeds, opts.Workers, func(i int, seed int64) Figure {
		sc := scale
		sc.Seed = seed
		return fig(sc)
	})

	out := MultiFigure{SeedCount: len(seeds)}
	if len(figs) == 0 {
		return out
	}
	out.ID = figs[0].ID + "-multi"
	out.Title = figs[0].Title
	for si, ref := range figs[0].Series {
		var med, p90, under []float64
		for _, f := range figs {
			cdf := f.Series[si].CDF
			if cdf.N() == 0 {
				continue
			}
			med = append(med, cdf.Median())
			p90 = append(p90, cdf.Quantile(0.9))
			under = append(under, cdf.FracBelow(0.10))
		}
		out.Series = append(out.Series, MultiSeries{
			Label:          ref.Label,
			Median:         stats.MetricOf(med),
			P90:            stats.MetricOf(p90),
			FracUnder10Pct: stats.MetricOf(under),
		})
	}
	return out
}

// Fig4aMulti re-records Figure 4(a) as mean ± CI across seeds.
func Fig4aMulti(scale Scale, opts runner.MultiOpts) MultiFigure {
	f := multiFigure(Fig4a, scale, opts)
	f.Notes = append(f.Notes, "paper shape: higher utilization -> lower relative error; adaptive <= static")
	return f
}

// Fig4bMulti re-records Figure 4(b) as mean ± CI across seeds.
func Fig4bMulti(scale Scale, opts runner.MultiOpts) MultiFigure {
	f := multiFigure(Fig4b, scale, opts)
	f.Notes = append(f.Notes, "paper shape: stddev estimates uniformly harder than means")
	return f
}

// Fig4cMulti re-records Figure 4(c) as mean ± CI across seeds.
func Fig4cMulti(scale Scale, opts runner.MultiOpts) MultiFigure {
	f := multiFigure(Fig4c, scale, opts)
	f.Notes = append(f.Notes, "paper shape: bursty cross traffic cuts relative error at equal utilization")
	return f
}

// ---- Multi-seed scalars ----

// ScalarsCI re-records the §4.2 quoted numbers across seeds.
type ScalarsCI struct {
	SeedCount        int
	BaseUtil         stats.MetricCI
	AdaptiveGap      stats.MetricCI
	TrueMean67Random stats.MetricCI // microseconds
	TrueMean93Random stats.MetricCI
	TrueMean67Bursty stats.MetricCI
	Median93Static   stats.MetricCI
}

// MultiScalars measures the scalar table at every derived seed.
func MultiScalars(scale Scale, opts runner.MultiOpts) ScalarsCI {
	seeds := opts.SeedsFrom(scale.Seed)
	rows := runner.Map(seeds, opts.Workers, func(i int, seed int64) []float64 {
		sc := scale
		sc.Seed = seed
		s := RunScalars(sc)
		return []float64{
			s.BaseUtil, float64(s.AdaptiveGap),
			float64(s.TrueMean67Random) / float64(time.Microsecond),
			float64(s.TrueMean93Random) / float64(time.Microsecond),
			float64(s.TrueMean67Bursty) / float64(time.Microsecond),
			s.Median93Static,
		}
	})
	return ScalarsCI{
		SeedCount:        len(seeds),
		BaseUtil:         column(rows, 0),
		AdaptiveGap:      column(rows, 1),
		TrueMean67Random: column(rows, 2),
		TrueMean93Random: column(rows, 3),
		TrueMean67Bursty: column(rows, 4),
		Median93Static:   column(rows, 5),
	}
}

// Render formats the across-seed scalars.
func (s ScalarsCI) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== scalars: §4.2 quoted numbers (mean ±95%% CI over %d seeds) ==\n", s.SeedCount)
	fmt.Fprintf(&b, "base utilization (regular only):   %s (paper: ~0.22)\n", s.BaseUtil)
	fmt.Fprintf(&b, "adaptive gap at base utilization:  %s (paper: 10)\n", s.AdaptiveGap)
	fmt.Fprintf(&b, "true mean delay @67%% random (µs):  %s\n", s.TrueMean67Random)
	fmt.Fprintf(&b, "true mean delay @93%% random (µs):  %s\n", s.TrueMean93Random)
	fmt.Fprintf(&b, "true mean delay @67%% bursty (µs):  %s\n", s.TrueMean67Bursty)
	fmt.Fprintf(&b, "median rel err, static @93%%:       %s (paper: ~0.042-0.045)\n", s.Median93Static)
	return b.String()
}

// ---- Multi-seed ablations ----

// EstimatorCI is one line of the multi-seed A2 table.
type EstimatorCI struct {
	Estimator   core.Estimator
	Median, P90 stats.MetricCI
}

// MultiEstimators re-records ablation A2 across seeds.
func MultiEstimators(scale Scale, targetUtil float64, opts runner.MultiOpts) []EstimatorCI {
	seeds := opts.SeedsFrom(scale.Seed)
	per := runner.Map(seeds, opts.Workers, func(i int, seed int64) []EstimatorRow {
		sc := scale
		sc.Seed = seed
		return AblationEstimators(sc, targetUtil)
	})
	var out []EstimatorCI
	for ei, ref := range per[0] {
		var med, p90 []float64
		for _, rows := range per {
			med = append(med, rows[ei].MedianRelErr)
			p90 = append(p90, rows[ei].P90RelErr)
		}
		out = append(out, EstimatorCI{
			Estimator: ref.Estimator,
			Median:    stats.MetricOf(med),
			P90:       stats.MetricOf(p90),
		})
	}
	return out
}

// RenderEstimatorsCI formats multi-seed A2.
func RenderEstimatorsCI(rows []EstimatorCI, seedCount int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== A2: interpolation estimator variants (mean ±95%% CI over %d seeds) ==\n", seedCount)
	fmt.Fprintf(&b, "%-10s %-20s %-20s\n", "estimator", "medianRelErr", "p90RelErr")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-20s %-20s\n", r.Estimator, r.Median, r.P90)
	}
	return b.String()
}

// ClockCI is one line of the multi-seed A3 table.
type ClockCI struct {
	Clock      string
	Median     stats.MetricCI
	TrueMeanUs stats.MetricCI
}

// MultiClocks re-records ablation A3 across seeds.
func MultiClocks(scale Scale, targetUtil float64, opts runner.MultiOpts) []ClockCI {
	seeds := opts.SeedsFrom(scale.Seed)
	per := runner.Map(seeds, opts.Workers, func(i int, seed int64) []ClockRow {
		sc := scale
		sc.Seed = seed
		return AblationClocks(sc, targetUtil)
	})
	var out []ClockCI
	for ci, ref := range per[0] {
		var rows [][]float64
		for _, p := range per {
			rows = append(rows, []float64{
				p[ci].MedianRelErr,
				float64(p[ci].TrueMean) / float64(time.Microsecond),
			})
		}
		out = append(out, ClockCI{Clock: ref.Clock, Median: column(rows, 0), TrueMeanUs: column(rows, 1)})
	}
	return out
}

// RenderClocksCI formats multi-seed A3.
func RenderClocksCI(rows []ClockCI, seedCount int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== A3: clock synchronization sensitivity (mean ±95%% CI over %d seeds) ==\n", seedCount)
	fmt.Fprintf(&b, "%-40s %-20s %-20s\n", "clock", "medianRelErr", "trueMean(µs)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-40s %-20s %-20s\n", r.Clock, r.Median, r.TrueMeanUs)
	}
	return b.String()
}

// BaselineCI re-records B1 across seeds.
type BaselineCI struct {
	SeedCount       int
	RLIRMedian      stats.MetricCI
	MultiflowMedian stats.MetricCI
	SampledMedian   stats.MetricCI
	LDAMeanErr      stats.MetricCI
}

// MultiBaselines re-records ablation B1 across seeds.
func MultiBaselines(scale Scale, targetUtil float64, opts runner.MultiOpts) BaselineCI {
	seeds := opts.SeedsFrom(scale.Seed)
	rows := runner.Map(seeds, opts.Workers, func(i int, seed int64) []float64 {
		sc := scale
		sc.Seed = seed
		r := RunBaselines(sc, targetUtil)
		return []float64{r.RLIRMedian, r.MultiflowMedian, r.SampledMedian, r.LDAMeanErr}
	})
	return BaselineCI{
		SeedCount:       len(seeds),
		RLIRMedian:      column(rows, 0),
		MultiflowMedian: column(rows, 1),
		SampledMedian:   column(rows, 2),
		LDAMeanErr:      column(rows, 3),
	}
}

// Render formats multi-seed B1.
func (r BaselineCI) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== B1: RLIR vs Multiflow vs sampling vs LDA (mean ±95%% CI over %d seeds) ==\n", r.SeedCount)
	fmt.Fprintf(&b, "%-22s %-20s %-10s\n", "mechanism", "medianRelErr", "scope")
	fmt.Fprintf(&b, "%-22s %-20s %-10s\n", "RLIR (per flow)", r.RLIRMedian, "per-flow")
	fmt.Fprintf(&b, "%-22s %-20s %-10s\n", "Multiflow (2-sample)", r.MultiflowMedian, "per-flow")
	fmt.Fprintf(&b, "%-22s %-20s %-10s\n", "NetFlow 1-in-32", r.SampledMedian, "per-flow")
	fmt.Fprintf(&b, "%-22s %-20s %-10s\n", "LDA (aggregate err)", r.LDAMeanErr, "aggregate")
	return b.String()
}
