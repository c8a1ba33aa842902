package rlir_test

import (
	"strings"
	"testing"
	"time"

	rlir "github.com/netmeasure/rlir"
)

// TestPublicAPITandem exercises the facade end to end the way README's
// quickstart does.
func TestPublicAPITandem(t *testing.T) {
	scale := rlir.SmallScale()
	res := rlir.RunTandem(rlir.TandemConfig{
		Scale:      scale,
		Scheme:     rlir.DefaultStatic(),
		Model:      rlir.CrossUniform,
		TargetUtil: 0.93,
	})
	if res.Summary.Flows == 0 {
		t.Fatal("no flows measured through public API")
	}
	if got := rlir.Summarize(res.Results); got.Flows != res.Summary.Flows {
		t.Fatal("Summarize disagrees with embedded summary")
	}
	cdf := rlir.MeanErrCDF(res.Results)
	if cdf.N() != res.Summary.Flows {
		t.Fatal("CDF size mismatch")
	}
	if !strings.Contains(res.Label(), "static") {
		t.Fatalf("label = %q", res.Label())
	}
}

func TestPublicAPIParsers(t *testing.T) {
	if _, err := rlir.ParseAddr("10.1.2.3"); err != nil {
		t.Fatal(err)
	}
	if _, err := rlir.ParseAddr("nope"); err == nil {
		t.Fatal("expected error")
	}
	p, err := rlir.ParsePrefix("10.0.0.0/8")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Contains(rlir.MustParseAddr("10.9.9.9")) {
		t.Fatal("prefix broken through facade")
	}
}

func TestPublicAPISchemes(t *testing.T) {
	if rlir.DefaultStatic().Gap(0.5) != 100 {
		t.Fatal("static default is not 1-and-100")
	}
	a := rlir.DefaultAdaptive()
	if a.Gap(0.22) != 10 || a.Gap(0.99) != 300 {
		t.Fatal("adaptive defaults drifted from the paper")
	}
	if (rlir.Static{N: 7}).Gap(0) != 7 {
		t.Fatal("custom static gap")
	}
}

func TestPublicAPITraceGenerator(t *testing.T) {
	cfg := rlir.DefaultTraceConfig()
	cfg.Duration = 20 * time.Millisecond
	gen := rlir.NewTraceGenerator(cfg)
	n := 0
	for {
		rec, ok := gen.Next()
		if !ok {
			break
		}
		if !cfg.SrcPrefix.Contains(rec.Key.Src) {
			t.Fatalf("record outside source pool: %v", rec.Key.Src)
		}
		n++
	}
	if n == 0 {
		t.Fatal("generator yielded nothing")
	}
}

func TestPublicAPIPlacement(t *testing.T) {
	rows, err := rlir.PlacementTable([]int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].PairOfInterfaces != 6 || rows[1].AllToRPairs != 144 {
		t.Fatalf("rows = %+v", rows)
	}
	if _, err := rlir.PlacementTable([]int{3}); err == nil {
		t.Fatal("odd arity should fail")
	}
}

func TestPublicAPIMicroseconds(t *testing.T) {
	if got := rlir.Microseconds(83 * time.Microsecond); got != 83 {
		t.Fatalf("Microseconds = %v", got)
	}
}

func TestPublicAPIFatTree(t *testing.T) {
	spec := rlir.DefaultScenarioSpec()
	spec.Duration = 60 * time.Millisecond
	spec.Deploy.Estimators = []string{"rli"}
	res, err := rlir.RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall.Flows == 0 || res.Misattribution != 0 {
		t.Fatalf("fat-tree via facade: %+v, misattribution %.4f", res.Overall, res.Misattribution)
	}
}

func TestPublicAPILocalization(t *testing.T) {
	cfg := rlir.DefaultLocalizationConfig()
	cfg.Spec.Duration = 80 * time.Millisecond
	cfg.Spec.Faults[0].End = cfg.Spec.Duration
	res, err := rlir.RunLocalization(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Localized() {
		t.Fatalf("localization via facade failed: %v", res.Anomalies)
	}
}

func TestPublicAPIClockTypes(t *testing.T) {
	var c rlir.ClockSource = rlir.PerfectClock{}
	if c.Read(0) != 0 {
		t.Fatal("perfect clock broken")
	}
	c = rlir.FixedOffsetClock{Offset: time.Microsecond}
	if c.Read(0) != 1000 {
		t.Fatal("offset clock broken")
	}
}
