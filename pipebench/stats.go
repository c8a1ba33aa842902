package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail read off fewer than this many slower samples is not supported by
// the data, so percentile refuses it.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs.
// It refuses when fewer than minBeyond samples lie beyond the rank.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of (0, 100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, n, max(n-rank, 0), minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle of xs (mean of the two middles for even
// lengths), or 0 for an empty slice. It is for small fixed-size sets, such
// as repeated set-ups, where percentile's tail rule does not apply.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// maxOf returns the largest element of xs, or 0 for an empty slice.
func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validMetricName reports whether name is a legal metric name: letters,
// digits, '_', '.' and '-', starting with a letter or digit, at most 64
// characters.
func validMetricName(name string) bool { return metricNameRE.MatchString(name) }
