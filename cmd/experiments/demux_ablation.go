package main

import (
	"fmt"
	"strings"
	"time"

	"github.com/netmeasure/rlir/internal/runner"
	"github.com/netmeasure/rlir/internal/scenario"
)

// Ablation A1 (DESIGN.md): every downstream demultiplexing strategy of
// §3.1 on one fat-tree workload. It runs on the scenario engine; the spec
// differs between rows only in Deploy.Demux.

// demuxStrategies is A1's row order: the ground-truth upper bound, the two
// deployable strategies, then the no-demux baseline.
var demuxStrategies = []string{scenario.DemuxOracle, scenario.DemuxReverseECMP, scenario.DemuxMark, scenario.DemuxNone}

// demuxSpec is A1's scenario: the default k=4 converging fat-tree with
// physically skewed core paths, measured by RLI alone. The skew makes the
// parallel paths' latencies genuinely different, which is when
// demultiplexing matters: a packet attributed to the wrong reference stream
// inherits the wrong path's baseline.
func demuxSpec(seed int64) scenario.Spec {
	spec := scenario.DefaultSpec()
	spec.Name = "A1"
	spec.Seed = seed
	spec.Topology.CoreSkew = 150 * time.Microsecond
	spec.Deploy.Estimators = []string{"rli"}
	return spec
}

// demuxAblation runs spec once per strategy at its seed.
func demuxAblation(spec scenario.Spec) ([]*scenario.Result, error) {
	out := make([]*scenario.Result, 0, len(demuxStrategies))
	for _, d := range demuxStrategies {
		spec.Deploy.Demux = d
		r, err := scenario.Run(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// renderDemuxAblation formats A1 as a table.
func renderDemuxAblation(results []*scenario.Result) string {
	var b strings.Builder
	b.WriteString("== A1: downstream demultiplexing strategies (k-ary fat-tree) ==\n")
	fmt.Fprintf(&b, "%-14s %-8s %-14s %-14s %-12s\n",
		"strategy", "flows", "medianRelErr", "under10%", "misattrib")
	for _, r := range results {
		fmt.Fprintf(&b, "%-14s %-8d %-14.4f %-14.1f %-12.4f\n",
			r.Spec.Deploy.Demux, r.Overall.Flows, r.Overall.MedianRelErr,
			r.Overall.FracUnder10Pct*100, r.Misattribution)
	}
	b.WriteString("note: paper §3.1 — without demux, estimates at multiplexed receivers 'can be totally wrong'\n")
	return b.String()
}

// demuxAblationMulti re-records A1 across derived seeds, one sweep per
// strategy.
func demuxAblationMulti(spec scenario.Spec, opts runner.MultiOpts) ([]*scenario.MultiResult, error) {
	out := make([]*scenario.MultiResult, 0, len(demuxStrategies))
	for _, d := range demuxStrategies {
		spec.Deploy.Demux = d
		mr, err := scenario.RunMulti(spec, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, mr)
	}
	return out, nil
}

// renderDemuxAblationMulti formats multi-seed A1.
func renderDemuxAblationMulti(rows []*scenario.MultiResult) string {
	var b strings.Builder
	seeds := 0
	if len(rows) > 0 {
		seeds = len(rows[0].Seeds)
	}
	fmt.Fprintf(&b, "== A1: downstream demultiplexing (mean ±95%% CI over %d seeds) ==\n", seeds)
	fmt.Fprintf(&b, "%-14s %-20s %-20s\n", "strategy", "misattribution", "downstreamMedian")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-20s %-20s\n", r.Spec.Deploy.Demux, r.Misattribution, r.MedianRelErr)
	}
	return b.String()
}
