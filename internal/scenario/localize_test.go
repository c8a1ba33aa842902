package scenario

import (
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/runner"
)

// smallLoc is L1's default at 120ms with its fault (if any) at the given
// aggregation switch over the whole run.
func smallLoc(faults ...FaultSpec) LocalizationConfig {
	cfg := DefaultLocalizationConfig()
	cfg.Spec.Duration = 120 * time.Millisecond
	cfg.Spec.Faults = nil
	for _, f := range faults {
		f.Kind = FaultHopDelay
		f.End = cfg.Spec.Duration
		f.Extra = 300 * time.Microsecond
		cfg.Spec.Faults = append(cfg.Spec.Faults, f)
	}
	return cfg
}

func TestLocalizationDstAggFault(t *testing.T) {
	res, err := Localize(smallLoc(FaultSpec{AggPod: 3, AggIdx: 0}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Baseline) != 8 || len(res.Faulty) != 8 {
		t.Fatalf("segments = %d/%d, want 8 (4 up + 4 down)", len(res.Baseline), len(res.Faulty))
	}
	if len(res.Anomalies) == 0 {
		t.Fatal("fault not detected")
	}
	if !res.Localized() {
		t.Fatalf("mislocalized: flagged %v, expected %v", res.Anomalies, res.Expected)
	}
	// The flagged segments must be downstream segments of core group 0.
	for _, a := range res.Anomalies {
		if !strings.HasPrefix(a.Segment, "core0.") || !strings.HasSuffix(a.Segment, "->tor3.0") {
			t.Fatalf("flagged wrong segment %q", a.Segment)
		}
	}
	if res.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestLocalizationSrcAggFault(t *testing.T) {
	res, err := Localize(smallLoc(FaultSpec{AggPod: 0, AggIdx: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Localized() {
		t.Fatalf("mislocalized: flagged %v, expected %v", res.Anomalies, res.Expected)
	}
	for _, a := range res.Anomalies {
		if !strings.HasPrefix(a.Segment, "uplink->core1.") {
			t.Fatalf("flagged wrong segment %q", a.Segment)
		}
	}
}

func TestLocalizationHealthyNetworkQuiet(t *testing.T) {
	res, err := Localize(smallLoc())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Anomalies) != 0 {
		t.Fatalf("false positives on a healthy network: %v", res.Anomalies)
	}
	if !res.Localized() {
		t.Fatal("healthy network should report localized=true (no expectations, no flags)")
	}
}

// TestMultiLocalizeAllSeeds is L1's multi-seed claim at a short window:
// every seed localizes the destination-aggregation fault exactly.
func TestMultiLocalizeAllSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed L1 in -short mode")
	}
	ci, err := MultiLocalize(smallLoc(FaultSpec{AggPod: 3, AggIdx: 0}), runner.MultiOpts{Seeds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ci.SeedCount != 4 || ci.SuccessRate != 1 {
		t.Fatalf("localized on %.0f%% of %d seeds, want all", ci.SuccessRate*100, ci.SeedCount)
	}
	if ci.FaultyInflation.Mean < 3 {
		t.Fatalf("faulty-segment inflation %v below the 3x threshold", ci.FaultyInflation)
	}
	if ci.Render() == "" {
		t.Fatal("empty render")
	}
}
