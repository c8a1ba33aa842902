package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/runner"
)

// TestSinglePassEquivalenceFatTree is the single-pass contract: attaching
// the full estimator set to a fat-tree run yields bit-identical RLI
// results to attaching RLI alone. Baseline estimators are passive taps —
// they must not perturb event ordering, receiver state, or the collector
// stream.
func TestSinglePassEquivalenceFatTree(t *testing.T) {
	base := quickSpec()
	base.Deploy.Estimators = []string{"rli"}
	full := quickSpec()
	full.Deploy.Estimators = []string{"rli", "lda", "netflow-sample", "multiflow", "hash-sample", "periodic-sample"}
	assertRLIEquivalent(t, base, full)
}

// TestSinglePassEquivalenceTandem pins the same contract on the tandem
// path, where the baselines ride the harness's sender/receiver point taps.
func TestSinglePassEquivalenceTandem(t *testing.T) {
	mk := func(ests []string) Spec {
		return Spec{
			Version:  SpecVersion,
			Name:     "tandem-equiv",
			Topology: TopologySpec{Kind: TopoTandem, LinkBps: 200e6, QueueBytes: 96 << 10},
			Workload: WorkloadSpec{LoadFrac: 0.22, CrossModel: CrossUniform, CrossUtil: 0.9},
			Deploy:   DeploymentSpec{Scheme: SchemeStatic, StaticN: 50, Estimators: ests},
			Duration: 80 * time.Millisecond,
			Seed:     1,
		}
	}
	assertRLIEquivalent(t, mk([]string{"rli"}), mk(nil))
}

// assertRLIEquivalent runs both specs and requires every RLI-derived field
// to match exactly.
func assertRLIEquivalent(t *testing.T, alone, withBaselines Spec) {
	t.Helper()
	a, err := Run(alone)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(withBaselines)
	if err != nil {
		t.Fatal(err)
	}
	if a.Injected != b.Injected || a.Overall != b.Overall || a.Misattribution != b.Misattribution {
		t.Fatalf("workload or overall accuracy diverged:\n%s\n%s", a.Render(), b.Render())
	}
	if a.EstP50 != b.EstP50 || a.EstP99 != b.EstP99 || a.TrueP50 != b.TrueP50 || a.TrueP99 != b.TrueP99 {
		t.Fatalf("delay tails diverged: %v/%v/%v/%v vs %v/%v/%v/%v",
			a.EstP50, a.EstP99, a.TrueP50, a.TrueP99, b.EstP50, b.EstP99, b.TrueP50, b.TrueP99)
	}
	if !reflect.DeepEqual(a.Routers, b.Routers) {
		t.Fatalf("per-router stats diverged:\n%+v\n%+v", a.Routers, b.Routers)
	}
	if !reflect.DeepEqual(a.Segments, b.Segments) {
		t.Fatalf("per-segment stats diverged:\n%+v\n%+v", a.Segments, b.Segments)
	}
	if a.Samples != b.Samples || !reflect.DeepEqual(a.Fleet, b.Fleet) {
		t.Fatalf("collector stream diverged: %d/%d samples, %d/%d fleet flows",
			a.Samples, b.Samples, len(a.Fleet), len(b.Fleet))
	}
	if len(a.Comparison) != 1 {
		t.Fatalf("rli-only run has %d comparison rows, want 1", len(a.Comparison))
	}
	if len(b.Comparison) != 6 {
		t.Fatalf("full run has %d comparison rows, want 6", len(b.Comparison))
	}
	ra, rb := a.Comparison[0], b.Comparison[0]
	if ra != rb {
		t.Fatalf("rli comparison row diverged:\n%+v\n%+v", ra, rb)
	}
}

// TestComparisonRowsFollowSpec pins the spec-declared estimator list: the
// comparison table has exactly the requested mechanisms in effective
// order, rli always first, and each baseline actually observed the run.
func TestComparisonRowsFollowSpec(t *testing.T) {
	s := quickSpec()
	s.Deploy.Estimators = []string{"netflow-sample", "rli"}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Comparison) != 2 || res.Comparison[0].Estimator != "rli" || res.Comparison[1].Estimator != "netflow-sample" {
		t.Fatalf("comparison rows %+v, want [rli netflow-sample]", res.Comparison)
	}
	ns := res.Comparison[1]
	if ns.Overhead.SampledRecords == 0 {
		t.Fatal("sampling baseline observed nothing; shared taps are not attached")
	}
	if rli := res.Comparison[0]; rli.Flows == 0 || rli.Overhead.InjectedBytes == 0 {
		t.Fatalf("rli row empty: %+v", rli)
	}
	if _, ok := res.Estimator("netflow-sample"); !ok {
		t.Fatal("Estimator lookup by name failed")
	}
}

// TestComparisonScoresAgainstSharedTruth sanity-checks the comparison
// semantics on a real run: the RLI row's aggregate estimate is close to
// ground truth, LDA produces an aggregate-only row, and multiflow's
// quantized estimates carry the documented handicap.
func TestComparisonScoresAgainstSharedTruth(t *testing.T) {
	s := quickSpec()
	s.Duration = 80 * time.Millisecond
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	rli, ok := res.Estimator("rli")
	if !ok || math.IsNaN(rli.AggRelErr) {
		t.Fatalf("rli row missing or unscored: %+v", rli)
	}
	lda, ok := res.Estimator("lda")
	if !ok {
		t.Fatal("lda row missing")
	}
	if !math.IsNaN(lda.MedianRelErr) || lda.Flows != 0 {
		t.Fatalf("lda must be aggregate-only, got %+v", lda)
	}
	if math.IsNaN(lda.AggRelErr) {
		t.Fatal("lda aggregate unscored")
	}
	mf, ok := res.Estimator("multiflow")
	if !ok || mf.Flows == 0 {
		t.Fatalf("multiflow row missing or empty: %+v", mf)
	}
}

// TestUnknownEstimatorRejected pins spec validation: an unknown estimator
// name fails loudly, listing the registered ones.
func TestUnknownEstimatorRejected(t *testing.T) {
	s := quickSpec()
	s.Deploy.Estimators = []string{"bogus"}
	err := s.Validate()
	if err == nil {
		t.Fatal("unknown estimator accepted")
	}
	for _, want := range []string{"bogus", "rli", "lda", "netflow-sample", "multiflow"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// TestMultiResultEstimatorCIs pins the across-seed fold: every estimator
// row aggregates with the right NaN handling (LDA's per-flow metrics fold
// to N = 0, not NaN means).
func TestMultiResultEstimatorCIs(t *testing.T) {
	s := quickSpec()
	s.Duration = 40 * time.Millisecond
	mr, err := RunMulti(s, runner.MultiOpts{Seeds: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.Estimators) != 6 {
		t.Fatalf("%d estimator CI rows, want 6", len(mr.Estimators))
	}
	byName := map[string]EstimatorCI{}
	for _, e := range mr.Estimators {
		byName[e.Name] = e
	}
	if rli := byName["rli"]; rli.MedianRelErr.N != 2 || math.IsNaN(rli.MedianRelErr.Mean) {
		t.Fatalf("rli across-seed metric %+v", rli.MedianRelErr)
	}
	if lda := byName["lda"]; lda.MedianRelErr.N != 0 {
		t.Fatalf("lda per-flow metric folded NaNs: %+v", lda.MedianRelErr)
	}
	out := mr.Render()
	if !strings.Contains(out, "estimator comparison") || !strings.Contains(out, "netflow-sample") {
		t.Fatalf("multi render missing estimator table:\n%s", out)
	}
}
