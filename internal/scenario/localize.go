package scenario

import (
	"fmt"
	"strings"
	"time"

	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/runner"
	"github.com/netmeasure/rlir/internal/stats"
)

// LocalizationConfig is L1, the paper's headline use case (§1, Figure 1):
// RLIR divides a ToR-to-ToR path into per-router segments, and the segment
// whose latency inflates names the sick router group. The spec carries the
// workload and the fault; Localize runs it against a fault-free calibration
// run of the same seed.
type LocalizationConfig struct {
	// Spec is the fat-tree scenario, faults included.
	Spec Spec
	// Threshold is the localizer's anomaly ratio (0 selects 3).
	Threshold float64
}

// DefaultLocalizationConfig returns the paper's T1 -> T7 path on a k=4
// fat-tree: every flow sources under pod 0, ToR 0 (a hotspot workload at
// skew 1; the hot pod is DestPod+1 mod K) and sinks under pod 3, ToR 0, at
// 60% of the destination ToR's host bandwidth. A 300µs hop-delay fault at
// the destination pod's aggregation switch 0 spans the whole 200ms run.
func DefaultLocalizationConfig() LocalizationConfig {
	s := DefaultSpec()
	s.Name = "localization"
	s.Duration = 200 * time.Millisecond
	s.Workload = WorkloadSpec{Pattern: PatternHotspot, HotspotSkew: 1, LoadFrac: 0.6, DestPod: 3}
	s.Deploy.StaticN = 40
	s.Deploy.Estimators = []string{"rli"}
	s.Faults = []FaultSpec{{Kind: FaultHopDelay, AggPod: 3, AggIdx: 0, End: s.Duration, Extra: 300 * time.Microsecond}}
	return LocalizationConfig{Spec: s, Threshold: 3}
}

// Localization is one L1 run: per-segment reports from the calibration and
// fault runs, the localizer's verdict, and the segments that truly contain
// a fault.
//
// Downstream segments ("coreJ.I->torP.E") report their estimate-weighted
// mean (Result.Segments); upstream segments ("uplink->coreJ.I", one per
// core receiver) report the core's estimated p50 (Result.Routers), the
// statistic the scenario keeps for them.
type Localization struct {
	Config LocalizationConfig
	// Seed is the seed both runs used.
	Seed int64
	// Baseline and Faulty are the two runs' segment reports, upstream
	// first, then downstream, each sorted by name.
	Baseline []core.SegmentReport
	Faulty   []core.SegmentReport
	// Anomalies is the localizer's verdict on the fault run.
	Anomalies []core.Anomaly
	// Expected names the segments the spec's faults lie on.
	Expected []string
}

// Localize runs cfg at its spec seed.
func Localize(cfg LocalizationConfig) (*Localization, error) {
	return localizeSeed(cfg, cfg.Spec.Seed)
}

// localizeSeed runs the fault-free calibration and the spec as given at one
// seed — the same paired-run shape as the adversary's clean run — and
// localizes with per-segment baselines.
func localizeSeed(cfg LocalizationConfig, seed int64) (*Localization, error) {
	spec := cfg.Spec
	if spec.Topology.Kind != TopoFatTree {
		return nil, fmt.Errorf("scenario: localization needs a %s topology, got %q", TopoFatTree, spec.Topology.Kind)
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = 3
	}
	if cfg.Threshold <= 1 {
		return nil, fmt.Errorf("scenario: localization threshold %v must exceed 1", cfg.Threshold)
	}
	clean := spec
	clean.Faults = nil
	base, err := RunSeed(clean, seed)
	if err != nil {
		return nil, err
	}
	faulty := base
	if len(spec.Faults) > 0 {
		if faulty, err = RunSeed(spec, seed); err != nil {
			return nil, err
		}
	}
	r := &Localization{
		Config:   cfg,
		Seed:     seed,
		Baseline: segmentReports(base),
		Faulty:   segmentReports(faulty),
		Expected: spec.faultySegments(),
	}
	loc := core.NewLocalizer(cfg.Threshold)
	loc.CalibrateFrom(r.Baseline)
	r.Anomalies = loc.Examine(r.Faulty)
	return r, nil
}

// upstreamSegment names the segment ending at a core receiver.
func upstreamSegment(router string) string { return "uplink->" + router }

// segmentReports reads one run's segments from its result: the core
// receivers' p50 upstream, the per-segment means downstream.
func segmentReports(res *Result) []core.SegmentReport {
	var out []core.SegmentReport
	for _, rs := range res.Routers {
		if rs.Segment == segmentUp {
			out = append(out, core.SegmentReport{Name: upstreamSegment(rs.Router), Estimates: rs.Summary.Estimates, Delay: rs.EstP50})
		}
	}
	for _, s := range res.Segments {
		out = append(out, core.SegmentReport{Name: s.Name, Estimates: s.Estimates, Delay: s.EstMean})
	}
	return out
}

// faultySegments names the measured segments the spec's faults lie on: a
// hop-delay at a monitored pod's aggregation switch j sits inside every
// coreJ.* -> monitored-ToR segment of that pod, one at any other pod's
// aggregation switch j inside the uplink -> coreJ.* segments; a degraded
// core down-link sits inside its core's segments toward that pod.
func (s Spec) faultySegments() []string {
	h := s.half()
	var out []string
	for _, f := range s.Faults {
		switch f.Kind {
		case FaultHopDelay:
			down := false
			for _, m := range s.monitoredToRs() {
				if m[0] == f.AggPod {
					down = true
					for i := 0; i < h; i++ {
						out = append(out, downstreamSegment(f.AggIdx, i, m[0], m[1]))
					}
				}
			}
			if !down {
				for i := 0; i < h; i++ {
					out = append(out, upstreamSegment(fmt.Sprintf("core%d.%d", f.AggIdx, i)))
				}
			}
		case FaultLinkDegrade:
			for _, m := range s.monitoredToRs() {
				if m[0] == f.DownPod {
					out = append(out, downstreamSegment(f.CoreJ, f.CoreI, m[0], m[1]))
				}
			}
		}
	}
	return out
}

// Localized reports whether every flagged segment truly contains a fault
// and at least one faulty segment was flagged (on a healthy network:
// whether nothing was flagged).
func (r *Localization) Localized() bool {
	if len(r.Expected) == 0 {
		return len(r.Anomalies) == 0
	}
	if len(r.Anomalies) == 0 {
		return false
	}
	expected := make(map[string]bool, len(r.Expected))
	for _, s := range r.Expected {
		expected[s] = true
	}
	for _, a := range r.Anomalies {
		if !expected[a.Segment] {
			return false
		}
	}
	return true
}

// inflation is the mean faulty/baseline delay ratio over the expected
// segments both runs measured (0 when there are none).
func (r *Localization) inflation() float64 {
	base := make(map[string]time.Duration, len(r.Baseline))
	for _, b := range r.Baseline {
		base[b.Name] = b.Delay
	}
	faulty := make(map[string]time.Duration, len(r.Faulty))
	for _, f := range r.Faulty {
		faulty[f.Name] = f.Delay
	}
	var sum float64
	var n int
	for _, name := range r.Expected {
		if b := base[name]; b > 0 {
			sum += float64(faulty[name]) / float64(b)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Render formats both runs' segments and the verdict.
func (r *Localization) Render() string {
	var b strings.Builder
	b.WriteString("== L1: latency anomaly localization across segments ==\n")
	for _, f := range r.Config.Spec.Faults {
		fmt.Fprintf(&b, "fault: %s", f.site())
		if f.Kind == FaultHopDelay {
			fmt.Fprintf(&b, " +%v", f.Extra)
		}
		fmt.Fprintf(&b, " over [%v, %v)\n", f.Start, f.End)
	}
	b.WriteString("upstream segments report the core's estimated p50, downstream the estimated mean\n")
	base := make(map[string]time.Duration, len(r.Baseline))
	for _, s := range r.Baseline {
		base[s.Name] = s.Delay
	}
	fmt.Fprintf(&b, "%-18s %12s %12s\n", "segment", "baseline", "faulty")
	for _, s := range r.Faulty {
		fmt.Fprintf(&b, "%-18s %12v %12v\n", s.Name, base[s.Name], s.Delay)
	}
	if len(r.Anomalies) == 0 {
		b.WriteString("verdict: no anomalies flagged\n")
	}
	for _, a := range r.Anomalies {
		fmt.Fprintf(&b, "verdict: %s\n", a)
	}
	fmt.Fprintf(&b, "localized correctly: %v (expected %v)\n", r.Localized(), r.Expected)
	return b.String()
}

// LocalizationCI is L1 across seeds.
type LocalizationCI struct {
	SeedCount int
	// SuccessRate is the fraction of seeds whose fault was localized to
	// exactly the truly faulty segment set.
	SuccessRate float64
	// FaultyInflation is the across-seed distribution of the mean
	// faulty/baseline delay ratio over the truly faulty segments.
	FaultyInflation stats.MetricCI
}

// MultiLocalize runs L1 at opts.Seeds derived seeds across the runner pool.
func MultiLocalize(cfg LocalizationConfig, opts runner.MultiOpts) (*LocalizationCI, error) {
	seeds := opts.SeedsFrom(cfg.Spec.Seed)
	type out struct {
		r   *Localization
		err error
	}
	outs := runner.Map(seeds, opts.Workers, func(_ int, seed int64) out {
		r, err := localizeSeed(cfg, seed)
		return out{r, err}
	})
	res := &LocalizationCI{SeedCount: len(seeds)}
	inflations := make([]float64, 0, len(outs))
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		if o.r.Localized() {
			res.SuccessRate += 1 / float64(len(outs))
		}
		inflations = append(inflations, o.r.inflation())
	}
	res.FaultyInflation = stats.MetricOf(inflations)
	return res, nil
}

// Render formats L1 across seeds.
func (r *LocalizationCI) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== L1: anomaly localization (over %d seeds) ==\n", r.SeedCount)
	fmt.Fprintf(&b, "localized correctly: %.0f%% of seeds\n", r.SuccessRate*100)
	fmt.Fprintf(&b, "faulty-segment inflation (faulty/baseline): %s\n", r.FaultyInflation)
	return b.String()
}
