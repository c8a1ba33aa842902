package experiments

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/runner"
)

// tinyScale keeps multi-seed sweeps affordable in unit tests.
func tinyScale() Scale {
	sc := SmallScale()
	sc.Duration = 120 * time.Millisecond
	return sc
}

// TestMultiTandemWorkerInvariance: the sweep's aggregated statistics and the
// merged collector snapshot must not depend on the worker count — the
// determinism contract of the runner + collector plane end to end, on real
// simulations.
func TestMultiTandemWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation sweep; skipped in -short")
	}
	cfg := TandemConfig{
		Scale:      tinyScale(),
		Scheme:     core.DefaultStatic(),
		Model:      CrossUniform,
		TargetUtil: 0.9,
	}
	seq := MultiTandem(cfg, runner.MultiOpts{Seeds: 3, Workers: 1})
	par := MultiTandem(cfg, runner.MultiOpts{Seeds: 3, Workers: 3})

	if !reflect.DeepEqual(seq.PerSeed, par.PerSeed) {
		t.Fatal("per-seed summaries differ across worker counts")
	}
	if !reflect.DeepEqual(seq.Merged, par.Merged) {
		t.Fatal("merged collector aggregates differ across worker counts")
	}
	if seq.MedianRelErr != par.MedianRelErr || seq.AchievedUtil != par.AchievedUtil {
		t.Fatal("across-seed metrics differ across worker counts")
	}
}

// TestMultiTandemStatistics sanity-checks the aggregation itself.
func TestMultiTandemStatistics(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation sweep; skipped in -short")
	}
	cfg := TandemConfig{
		Scale:      tinyScale(),
		Scheme:     core.DefaultStatic(),
		Model:      CrossUniform,
		TargetUtil: 0.9,
	}
	r := MultiTandem(cfg, runner.MultiOpts{Seeds: 3})
	if len(r.Seeds) != 3 || len(r.PerSeed) != 3 {
		t.Fatalf("got %d seeds, %d summaries", len(r.Seeds), len(r.PerSeed))
	}
	if r.Seeds[0] == r.Seeds[1] || r.Seeds[1] == r.Seeds[2] {
		t.Fatalf("derived seeds not distinct: %v", r.Seeds)
	}
	if r.MedianRelErr.N != 3 || r.MedianRelErr.CI95 < 0 {
		t.Fatalf("bad MedianRelErr stats: %+v", r.MedianRelErr)
	}
	if r.MedianRelErr.Min > r.MedianRelErr.Mean || r.MedianRelErr.Mean > r.MedianRelErr.Max {
		t.Fatalf("mean outside [min,max]: %+v", r.MedianRelErr)
	}
	// Cross-check the mean against the per-seed summaries.
	var sum float64
	for _, s := range r.PerSeed {
		sum += s.MedianRelErr
	}
	if want := sum / 3; math.Abs(r.MedianRelErr.Mean-want) > 1e-12 {
		t.Fatalf("MedianRelErr.Mean = %v, want %v", r.MedianRelErr.Mean, want)
	}
	// The merged plane must hold every run's estimates.
	var merged int64
	for _, a := range r.Merged {
		merged += a.Est.N()
	}
	var perSeed int64
	for _, s := range r.PerSeed {
		perSeed += s.Estimates
	}
	if merged != perSeed {
		t.Fatalf("merged collector holds %d estimates, per-seed summaries total %d", merged, perSeed)
	}
}
