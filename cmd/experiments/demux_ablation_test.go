package main

import (
	"strings"
	"testing"
	"time"
)

// TestDemuxAblationShape checks A1's driver: one row per strategy, in
// order, each the A1 spec with only Deploy.Demux changed, and a table that
// lists every row. A1's accuracy claim itself is pinned by
// internal/experiments TestAblationDemuxShape.
func TestDemuxAblationShape(t *testing.T) {
	spec := demuxSpec(1)
	spec.Duration = 30 * time.Millisecond
	results, err := demuxAblation(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(demuxStrategies) {
		t.Fatalf("results = %d, want %d", len(results), len(demuxStrategies))
	}
	for i, r := range results {
		got := r.Spec
		if got.Deploy.Demux != demuxStrategies[i] {
			t.Fatalf("row %d demux = %q, want %q", i, got.Deploy.Demux, demuxStrategies[i])
		}
		if got.Topology.CoreSkew != 150*time.Microsecond || len(got.Deploy.Estimators) != 1 || got.Deploy.Estimators[0] != "rli" {
			t.Errorf("row %d is not the A1 spec: skew %v, estimators %v", i, got.Topology.CoreSkew, got.Deploy.Estimators)
		}
		if r.Overall.Flows == 0 {
			t.Errorf("%s measured no flows", got.Deploy.Demux)
		}
	}
	if none := results[len(results)-1]; none.Misattribution == 0 {
		t.Errorf("no-demux row has zero misattribution")
	}
	out := renderDemuxAblation(results)
	for _, d := range demuxStrategies {
		if !strings.Contains(out, d) {
			t.Fatalf("A1 table missing strategy %q:\n%s", d, out)
		}
	}
}
