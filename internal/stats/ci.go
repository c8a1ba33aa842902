package stats

import (
	"fmt"
	"math"
)

// tCrit95 holds two-sided 95% Student-t critical values for 1..30 degrees of
// freedom; beyond 30 the normal approximation (1.96) is close enough for the
// experiment tables this repository prints.
var tCrit95 = [30]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// CI95 returns the half-width of the 95% confidence interval for the mean of
// the accumulated samples (Student-t for small n), or 0 with fewer than two
// samples. Multi-seed experiment sweeps report their headline metrics as
// Mean() ± CI95().
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	t := 1.96
	if df := w.n - 1; df <= 30 {
		t = tCrit95[df-1]
	}
	return t * math.Sqrt(w.SampleVar()/float64(w.n))
}

// MetricCI is one metric's across-seed distribution: mean ± 95% CI
// (Student-t) over N independent runs.
type MetricCI struct {
	Mean, CI95 float64
	Min, Max   float64
	N          int
}

// MetricOf folds independent per-seed samples into a mean ± 95% CI metric.
// Every multi-seed sweep (the figure harnesses and the scenario engine)
// shares this one implementation of the across-seed statistic.
func MetricOf(samples []float64) MetricCI {
	var w Welford
	m := MetricCI{}
	for _, x := range samples {
		if w.N() == 0 || x < m.Min {
			m.Min = x
		}
		if w.N() == 0 || x > m.Max {
			m.Max = x
		}
		w.Add(x)
	}
	m.Mean = w.Mean()
	m.CI95 = w.CI95()
	m.N = int(w.N())
	return m
}

func (m MetricCI) String() string {
	if m.N == 0 {
		return "n/a"
	}
	if m.N == 1 {
		return fmt.Sprintf("%.4f", m.Mean)
	}
	return fmt.Sprintf("%.4f ±%.4f", m.Mean, m.CI95)
}
