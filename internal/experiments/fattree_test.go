package experiments_test

// Fat-tree runs of ablation A1 go through the scenario engine, which imports
// this package for the tandem harness; these tests therefore live in the
// external test package.

import (
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/scenario"
)

// smallFT is A1's scenario (the default k=4 converging fat-tree with skewed
// core paths, measured by RLI alone) shrunk for CI.
func smallFT(demux string) scenario.Spec {
	spec := scenario.DefaultSpec()
	spec.Duration = 120 * time.Millisecond
	spec.Topology.CoreSkew = 150 * time.Microsecond
	spec.Deploy.Estimators = []string{"rli"}
	spec.Deploy.Demux = demux
	return spec
}

func runFT(t *testing.T, demux string) *scenario.Result {
	t.Helper()
	r, err := scenario.Run(smallFT(demux))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunFatTreeReverseECMP(t *testing.T) {
	r := runFT(t, scenario.DemuxReverseECMP)
	if r.Injected == 0 {
		t.Fatal("no packets injected")
	}
	if r.Overall.Flows < 10 {
		t.Fatalf("downstream flows = %d", r.Overall.Flows)
	}
	// Reverse ECMP with vendor-revealed hashes is exact: zero
	// misattribution.
	if r.Misattribution != 0 {
		t.Fatalf("reverse-ECMP misattribution = %.4f, want 0", r.Misattribution)
	}
	upstream := 0
	for _, rs := range r.Routers {
		if rs.Segment != "tor-uplink->core" {
			continue
		}
		upstream++
		if rs.Summary.Flows == 0 {
			t.Errorf("upstream receiver %s saw no flows", rs.Router)
		}
	}
	if upstream != 4 {
		t.Errorf("%d upstream core receivers, want 4 in a k=4 tree", upstream)
	}
}

func TestRunFatTreeMarking(t *testing.T) {
	r := runFT(t, scenario.DemuxMark)
	if r.Misattribution != 0 {
		t.Fatalf("marking misattribution = %.4f, want 0", r.Misattribution)
	}
	if r.Overall.Flows == 0 {
		t.Fatal("no flows measured")
	}
}

// TestAblationDemuxShape pins A1's claim: the deployable strategies match
// ground truth exactly, so their per-flow accuracy is the oracle's to the
// bit, while the no-demux baseline misattributes most packets (3 of 4 cores
// are wrong in a k=4 tree) — the paper's "totally wrong".
func TestAblationDemuxShape(t *testing.T) {
	oracle := runFT(t, scenario.DemuxOracle)
	for _, d := range []string{scenario.DemuxReverseECMP, scenario.DemuxMark} {
		r := runFT(t, d)
		if r.Misattribution != 0 {
			t.Errorf("%s misattribution = %.4f, want 0", d, r.Misattribution)
		}
		if r.Overall != oracle.Overall {
			t.Errorf("%s overall %+v differs from oracle %+v", d, r.Overall, oracle.Overall)
		}
	}
	if oracle.Misattribution != 0 {
		t.Errorf("oracle misattribution = %.4f, want 0", oracle.Misattribution)
	}
	none := runFT(t, scenario.DemuxNone)
	if none.Misattribution <= 0.5 {
		t.Errorf("no-demux misattribution = %.4f, want > 0.5", none.Misattribution)
	}
	if none.Overall.MedianRelErr <= oracle.Overall.MedianRelErr {
		t.Errorf("no-demux median %.4f should exceed oracle %.4f",
			none.Overall.MedianRelErr, oracle.Overall.MedianRelErr)
	}
}

func TestFatTreeDeterminism(t *testing.T) {
	a, b := runFT(t, scenario.DemuxReverseECMP), runFT(t, scenario.DemuxReverseECMP)
	if a.Overall != b.Overall || a.Injected != b.Injected || a.Misattribution != b.Misattribution {
		t.Fatal("fat-tree run not deterministic")
	}
}
