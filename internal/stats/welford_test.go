package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func twoPass(xs []float64) (mean, popVar float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	mean = s / float64(len(xs))
	var m2 float64
	for _, x := range xs {
		m2 += (x - mean) * (x - mean)
	}
	return mean, m2 / float64(len(xs))
}

func TestWelfordMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(1000) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()*1e3 + 5e4 // latency-like ns values
		}
		var w Welford
		for _, x := range xs {
			w.Add(x)
		}
		mean, v := twoPass(xs)
		if relDiff(w.Mean(), mean) > 1e-9 {
			t.Fatalf("mean = %v, want %v", w.Mean(), mean)
		}
		if relDiff(w.Var(), v) > 1e-6 {
			t.Fatalf("var = %v, want %v", w.Var(), v)
		}
	}
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 || w.Var() != 0 || w.Std() != 0 {
		t.Fatal("zero-value Welford should report zeros")
	}
	w.Add(42)
	if w.N() != 1 || w.Mean() != 42 || w.Var() != 0 {
		t.Fatalf("single sample: n=%d mean=%v var=%v", w.N(), w.Mean(), w.Var())
	}
	if w.SampleVar() != 0 {
		t.Fatalf("SampleVar with one sample = %v, want 0", w.SampleVar())
	}
}

func TestWelfordAddN(t *testing.T) {
	var a, b Welford
	for i := 0; i < 5; i++ {
		a.Add(7)
	}
	b.AddN(7, 5)
	if a.N() != b.N() || a.Mean() != b.Mean() || a.Var() != b.Var() {
		t.Fatal("AddN(x,5) differs from five Add(x)")
	}
}

func TestWelfordMergeProperty(t *testing.T) {
	// Merging two accumulators equals accumulating the concatenation.
	f := func(xs, ys []float64) bool {
		clean := func(in []float64) []float64 {
			out := in[:0]
			for _, v := range in {
				if !math.IsNaN(v) && !math.IsInf(v, 0) {
					// Bound magnitude to keep the float comparison meaningful.
					out = append(out, math.Mod(v, 1e6))
				}
			}
			return out
		}
		xs, ys = clean(xs), clean(ys)
		var a, b, all Welford
		for _, x := range xs {
			a.Add(x)
			all.Add(x)
		}
		for _, y := range ys {
			b.Add(y)
			all.Add(y)
		}
		a.Merge(&b)
		if a.N() != all.N() {
			return false
		}
		if all.N() == 0 {
			return true
		}
		return relDiff(a.Mean(), all.Mean()) < 1e-6 && math.Abs(a.Var()-all.Var()) <= 1e-6*(1+all.Var())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Add(3)
	a.Merge(&b) // merging empty is a no-op
	if a.N() != 2 || a.Mean() != 2 {
		t.Fatalf("merge empty changed state: n=%d mean=%v", a.N(), a.Mean())
	}
	b.Merge(&a) // merging into empty copies
	if b.N() != 2 || b.Mean() != 2 {
		t.Fatalf("merge into empty: n=%d mean=%v", b.N(), b.Mean())
	}
}

func TestWelfordVarianceNonNegativeProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var w Welford
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			w.Add(math.Mod(x, 1e9))
		}
		return w.Var() >= 0 && w.SampleVar() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRelErr(t *testing.T) {
	cases := []struct {
		est, truth, want float64
	}{
		{110, 100, 0.10},
		{90, 100, 0.10},
		{100, 100, 0},
		{0, 0, 0},
		{-5, 10, 1.5},
	}
	for _, c := range cases {
		if got := RelErr(c.est, c.truth); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("RelErr(%v,%v) = %v, want %v", c.est, c.truth, got, c.want)
		}
	}
	if !math.IsInf(RelErr(1, 0), 1) {
		t.Error("RelErr(1,0) should be +Inf")
	}
}

func TestMetricOf(t *testing.T) {
	m := MetricOf([]float64{1, 2, 3})
	if m.N != 3 || m.Mean != 2 || m.Min != 1 || m.Max != 3 {
		t.Fatalf("metricOf: %+v", m)
	}
	if m.String() == "" || MetricOf(nil).String() != "n/a" {
		t.Fatalf("String rendering broken: %q / %q", m.String(), MetricOf(nil).String())
	}
}
