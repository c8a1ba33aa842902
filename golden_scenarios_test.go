package rlir_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/netmeasure/rlir/internal/scenario"
)

// TestGoldenScenarios pins the fat-tree scenario engine bit-for-bit: every
// registered fat-tree scenario at seeds 1 and 7 on the sequential engine
// must reproduce the headline fields stored in
// testdata/golden_scenarios.json exactly, and its full Result must hash to
// the stored digest. TestGoldenDeterminism pins only the tandem and the
// parallel bit-identity tests compare the engine with itself, so this is
// the fixture that catches an event-order or arithmetic change on the
// fat-tree path.
//
// Regenerate (only when an intentional semantic change is made, and say so
// in CHANGES.md) with:
//
//	go test -run TestGoldenScenarios -update-golden .
var goldenScenarioSeeds = []int64{1, 7}

// exactFloat is a float64 as its exact bit pattern (compared) and its
// shortest decimal form (diagnostics only; JSON has no NaN). Every NaN is
// stored as the one canonical NaN pattern.
type exactFloat struct {
	Bits  uint64 `json:"bits"`
	Value string `json:"value"`
}

func ef(v float64) exactFloat {
	if math.IsNaN(v) {
		v = math.NaN()
	}
	return exactFloat{Bits: math.Float64bits(v), Value: strconv.FormatFloat(v, 'g', -1, 64)}
}

type goldenComparison struct {
	Estimator      string     `json:"estimator"`
	Flows          int        `json:"flows"`
	Samples        int64      `json:"samples"`
	MedianRelErr   exactFloat `json:"median_rel_err"`
	P99RelErr      exactFloat `json:"p99_rel_err"`
	AggMeanNS      int64      `json:"agg_mean_ns"`
	AggSamples     int64      `json:"agg_samples"`
	AggRelErr      exactFloat `json:"agg_rel_err"`
	Misattribution exactFloat `json:"misattribution"`
}

type goldenScenarioRun struct {
	Name            string             `json:"name"`
	Seed            int64              `json:"seed"`
	Injected        int                `json:"injected"`
	Samples         uint64             `json:"samples"`
	Flows           int                `json:"flows"`
	Estimates       int64              `json:"estimates"`
	MedianRelErr    exactFloat         `json:"median_rel_err"`
	P90RelErr       exactFloat         `json:"p90_rel_err"`
	FracUnder10Pct  exactFloat         `json:"frac_under_10pct"`
	TrueMeanDelayNS int64              `json:"true_mean_delay_ns"`
	EstP50NS        int64              `json:"est_p50_ns"`
	EstP99NS        int64              `json:"est_p99_ns"`
	Misattribution  exactFloat         `json:"misattribution"`
	Comparison      []goldenComparison `json:"comparison"`
	ResultSHA256    string             `json:"result_sha256"`
}

func captureGoldenScenarios(t *testing.T) []goldenScenarioRun {
	var out []goldenScenarioRun
	for _, sc := range scenario.All() {
		if sc.Spec.Topology.Kind != scenario.TopoFatTree {
			continue
		}
		for _, seed := range goldenScenarioSeeds {
			spec := sc.Spec
			spec.Engine = scenario.EngineSequential
			r, err := scenario.RunSeed(spec, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sc.Name, seed, err)
			}
			g := goldenScenarioRun{
				Name:            sc.Name,
				Seed:            seed,
				Injected:        r.Injected,
				Samples:         r.Samples,
				Flows:           r.Overall.Flows,
				Estimates:       r.Overall.Estimates,
				MedianRelErr:    ef(r.Overall.MedianRelErr),
				P90RelErr:       ef(r.Overall.P90RelErr),
				FracUnder10Pct:  ef(r.Overall.FracUnder10Pct),
				TrueMeanDelayNS: int64(r.Overall.TrueMeanDelay),
				EstP50NS:        int64(r.EstP50),
				EstP99NS:        int64(r.EstP99),
				Misattribution:  ef(r.Misattribution),
				ResultSHA256:    resultDigest(r),
			}
			for _, c := range r.Comparison {
				g.Comparison = append(g.Comparison, goldenComparison{
					Estimator:      c.Estimator,
					Flows:          c.Flows,
					Samples:        c.Samples,
					MedianRelErr:   ef(c.MedianRelErr),
					P99RelErr:      ef(c.P99RelErr),
					AggMeanNS:      int64(c.AggMean),
					AggSamples:     c.AggSamples,
					AggRelErr:      ef(c.AggRelErr),
					Misattribution: ef(c.Misattribution),
				})
			}
			out = append(out, g)
		}
	}
	return out
}

// resultDigest hashes a canonical dump of the whole Result: pointers are
// followed, floats are written as bit patterns with every NaN folded to one
// value, map entries are sorted, and the engine-selection fields are blanked
// so the digest names the simulation outcome, not how it was scheduled.
func resultDigest(r *scenario.Result) string {
	c := *r
	c.Spec.Engine = ""
	c.Spec.Partitions = 0
	h := sha256.New()
	canonicalDump(h, reflect.ValueOf(c))
	return hex.EncodeToString(h.Sum(nil))
}

func canonicalDump(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		fmt.Fprintf(w, "%t", v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(w, "%d", v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprintf(w, "%d", v.Uint())
	case reflect.Float32, reflect.Float64:
		f := v.Float()
		if math.IsNaN(f) {
			io.WriteString(w, "NaN")
		} else {
			fmt.Fprintf(w, "%x", math.Float64bits(f))
		}
	case reflect.String:
		fmt.Fprintf(w, "%q", v.String())
	case reflect.Struct:
		io.WriteString(w, "{")
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(w, "%s:", v.Type().Field(i).Name)
			canonicalDump(w, v.Field(i))
			io.WriteString(w, " ")
		}
		io.WriteString(w, "}")
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			io.WriteString(w, "nil")
			return
		}
		io.WriteString(w, "[")
		for i := 0; i < v.Len(); i++ {
			canonicalDump(w, v.Index(i))
			io.WriteString(w, " ")
		}
		io.WriteString(w, "]")
	case reflect.Map:
		if v.IsNil() {
			io.WriteString(w, "nil")
			return
		}
		entries := make([]string, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			var b strings.Builder
			canonicalDump(&b, it.Key())
			b.WriteString("=")
			canonicalDump(&b, it.Value())
			entries = append(entries, b.String())
		}
		sort.Strings(entries)
		fmt.Fprintf(w, "map%v", entries)
	case reflect.Ptr, reflect.Interface:
		if v.IsNil() {
			io.WriteString(w, "nil")
			return
		}
		io.WriteString(w, "&")
		canonicalDump(w, v.Elem())
	case reflect.Func:
		// Scenario checks and hooks are code, not outcome.
		if v.IsNil() {
			io.WriteString(w, "nil")
		} else {
			io.WriteString(w, "func")
		}
	default:
		panic("golden: cannot dump kind " + v.Kind().String())
	}
}

func TestGoldenScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("golden scenario run is a multi-simulation test; skipped in -short")
	}
	path := filepath.Join("testdata", "golden_scenarios.json")
	got := captureGoldenScenarios(t)

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update-golden to create): %v", err)
	}
	var want []goldenScenarioRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("run count %d != fixture %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.Seed != w.Seed {
			t.Fatalf("run %d is %s/%d, fixture %s/%d", i, g.Name, g.Seed, w.Name, w.Seed)
		}
		// The headline fields name what moved; the digest catches the rest.
		if !reflect.DeepEqual(g, w) {
			gj, _ := json.MarshalIndent(g, "", "  ")
			wj, _ := json.MarshalIndent(w, "", "  ")
			t.Errorf("%s seed %d differs from fixture\ngot:  %s\nwant: %s", g.Name, g.Seed, gj, wj)
		}
	}
}
