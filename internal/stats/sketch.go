package stats

import (
	"fmt"
	"math"
	"time"
)

// Sketch is a bounded-memory quantile sketch over non-negative latency
// values (float64 nanoseconds), DDSketch-style with a fixed log-linear
// bucket layout: each power-of-two octave is subdivided into 32 linear
// subbuckets, values in [0, 1) land in a dedicated zero bucket (latencies
// are integer nanoseconds, so those values are exactly 0). The layout is
// structural — bucket i's bounds depend only on i, never on the data — so
// the sketch never rebalances and two sketches always merge by elementwise
// counter addition: Merge is bit-exact under any merge order, even when
// both operands are non-empty (a stronger property than Welford's, and the
// one the fleet tier's rollup merging relies on).
//
// Memory is bounded by construction: the counter window spans only the
// buckets between the smallest and largest observed values (a flow whose
// latencies span one order of magnitude touches ~110 buckets) and can
// never exceed SketchMaxBuckets entries regardless of how many samples are
// added — unlike an exact CDF, whose memory grows linearly with samples.
//
// Accuracy: Quantile returns the midpoint of the bucket holding the exact
// nearest-rank sample, so its relative error vs the exact CDF quantile is
// at most SketchRelErrBound (1/64 ≈ 1.6%); values in [0, 1) are returned
// as exactly 0. The bound is pinned by property test against stats.CDF.
//
// The zero value is ready to use.
type Sketch struct {
	zero    uint64 // observations in [0, 1) ns, represented exactly as 0
	count   uint64
	base    int32 // bucket index of buckets[0]
	buckets []uint64
	min     float64
	max     float64
}

const (
	sketchSubBits    = 5
	sketchSubBuckets = 1 << sketchSubBits // 32 linear subbuckets per octave

	// SketchMaxBuckets is the structural ceiling on a sketch's counter
	// window: 64 octaves x 32 subbuckets. A sketch can never allocate more
	// bucket counters than this, whatever its input.
	SketchMaxBuckets = 64 * sketchSubBuckets

	// SketchRelErrBound is the worst-case relative error of Quantile vs the
	// exact nearest-rank quantile over the same samples: half a bucket's
	// width over its lower bound, (2^o/32/2) / 2^o = 1/64.
	SketchRelErrBound = 1.0 / 64
)

// sketchIndex maps a value >= 1 to its bucket: octave (floor log2) times 32
// plus the linear subbucket within the octave.
func sketchIndex(v float64) int {
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	octave := exp - 1
	if octave > 63 {
		return SketchMaxBuckets - 1
	}
	sub := int((frac*2 - 1) * sketchSubBuckets)
	if sub >= sketchSubBuckets {
		sub = sketchSubBuckets - 1
	}
	return octave<<sketchSubBits | sub
}

// sketchValue is bucket idx's representative: the midpoint of its bounds
// [2^o(1+s/32), 2^o(1+(s+1)/32)).
func sketchValue(idx int) float64 {
	octave := idx >> sketchSubBits
	sub := idx & (sketchSubBuckets - 1)
	lo := math.Ldexp(1+float64(sub)/sketchSubBuckets, octave)
	hi := math.Ldexp(1+float64(sub+1)/sketchSubBuckets, octave)
	return (lo + hi) / 2
}

// Add folds one observation. Negative and NaN values are clamped to zero
// (they can only arise from clock desynchronization, tracked separately by
// callers), matching Histogram.Record; values in [0, 1) collapse to exactly
// 0 — min/max included — since latencies are integer nanoseconds.
func (s *Sketch) Add(x float64) {
	if x < 1 || math.IsNaN(x) {
		x = 0 // sub-1ns values are represented exactly as 0 (the zero bucket)
	}
	if s.count == 0 || x < s.min {
		s.min = x
	}
	if s.count == 0 || x > s.max {
		s.max = x
	}
	s.count++
	if x < 1 {
		s.zero++
		return
	}
	idx := sketchIndex(x)
	s.ensure(idx, idx)
	s.buckets[idx-int(s.base)]++
}

// Record adds one duration (the time.Duration face of Add).
func (s *Sketch) Record(d time.Duration) { s.Add(float64(d)) }

// ensure grows the counter window to cover bucket indices [lo, hi]. The
// window's ends always hold non-zero counters (counters only grow, and a
// window only extends to a bucket that is immediately incremented), so the
// representation is a pure function of the observed multiset — what makes
// DeepEqual comparisons and bit-exact merges possible.
func (s *Sketch) ensure(lo, hi int) {
	if s.buckets == nil {
		s.base = int32(lo)
		s.buckets = make([]uint64, hi-lo+1)
		return
	}
	b := int(s.base)
	end := b + len(s.buckets) - 1
	if lo >= b && hi <= end {
		return
	}
	nb, ne := b, end
	if lo < nb {
		nb = lo
	}
	if hi > ne {
		ne = hi
	}
	grown := make([]uint64, ne-nb+1)
	copy(grown[b-nb:], s.buckets)
	s.base = int32(nb)
	s.buckets = grown
}

// Merge folds o into s. Elementwise integer addition over an aligned
// window plus min/max comparisons: exactly associative and commutative, so
// any merge order over any partition of a stream yields the identical
// sketch. o is not modified.
func (s *Sketch) Merge(o *Sketch) {
	if o.count == 0 {
		return
	}
	if s.count == 0 {
		s.zero, s.count, s.base = o.zero, o.count, o.base
		s.min, s.max = o.min, o.max
		s.buckets = append([]uint64(nil), o.buckets...)
		return
	}
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.zero += o.zero
	s.count += o.count
	if len(o.buckets) > 0 {
		s.ensure(int(o.base), int(o.base)+len(o.buckets)-1)
		off := int(o.base) - int(s.base)
		for i, c := range o.buckets {
			s.buckets[off+i] += c
		}
	}
}

// Count returns the number of observations.
func (s *Sketch) Count() uint64 { return s.count }

// Min returns the smallest observation (exact, not bucketed).
func (s *Sketch) Min() float64 { return s.min }

// Max returns the largest observation (exact, not bucketed).
func (s *Sketch) Max() float64 { return s.max }

// Buckets returns the number of allocated bucket counters — the sketch's
// memory footprint in window entries (<= SketchMaxBuckets).
func (s *Sketch) Buckets() int { return len(s.buckets) }

// Quantile returns the q-quantile (0 <= q <= 1) under nearest-rank
// semantics: the representative of the bucket holding the q-th ranked
// observation, within SketchRelErrBound of the exact sample. An empty
// sketch returns 0; out-of-range q panics, matching CDF.Quantile.
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	rank := uint64(math.Ceil(q * float64(s.count)))
	if rank == 0 {
		rank = 1
	}
	if rank <= s.zero {
		return 0
	}
	seen := s.zero
	for i, c := range s.buckets {
		seen += c
		if seen >= rank {
			return sketchValue(int(s.base) + i)
		}
	}
	return s.max
}

// QuantileDuration returns Quantile as a duration, rounded down.
func (s *Sketch) QuantileDuration(q float64) time.Duration {
	return time.Duration(s.Quantile(q))
}

// SketchState is the exported internal state of a Sketch: the counter
// window verbatim plus the scalar fields. Like WelfordState and
// HistogramState it exists for the fleet raw-snapshot wire — State → JSON →
// SketchFromState is bit-identical.
type SketchState struct {
	Zero    uint64   `json:"zero,omitempty"`
	Count   uint64   `json:"count"`
	Base    int32    `json:"base,omitempty"`
	Buckets []uint64 `json:"buckets,omitempty"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
}

// State returns the sketch's exact internal state.
func (s *Sketch) State() SketchState {
	st := SketchState{Zero: s.zero, Count: s.count, Base: s.base, Min: s.min, Max: s.max}
	if len(s.buckets) > 0 {
		st.Buckets = append([]uint64(nil), s.buckets...)
	}
	return st
}

// SetState rebuilds the sketch from exported state, bit-identical to the
// sketch State was called on. A wire peer's window that falls outside the
// structural bucket range is truncated defensively, never trusted to
// allocate unboundedly.
func (s *Sketch) SetState(st SketchState) {
	*s = Sketch{zero: st.Zero, count: st.Count, base: st.Base, min: st.Min, max: st.Max}
	n := len(st.Buckets)
	if st.Base < 0 {
		s.base, n = 0, 0 // nonsense window: drop it rather than index negatively
	}
	if max := SketchMaxBuckets - int(s.base); n > max {
		n = max
	}
	if n > 0 {
		s.buckets = append([]uint64(nil), st.Buckets[:n]...)
	}
}

// Validate checks the invariants every sketch built by Add and Merge keeps:
// the counter window lies inside [0, SketchMaxBuckets) and the count is
// exactly the zero bucket plus the window's counters. SetState would clamp
// or trust a state that breaks them, so state from a wire peer must pass
// Validate first — a peer claiming more mass than its buckets hold would
// otherwise drag every merged quantile.
func (st SketchState) Validate() error {
	if st.Base < 0 || int(st.Base)+len(st.Buckets) > SketchMaxBuckets {
		return fmt.Errorf("stats: sketch window [%d, %d) outside [0, %d)", st.Base, int(st.Base)+len(st.Buckets), SketchMaxBuckets)
	}
	sum := st.Zero
	for _, c := range st.Buckets {
		if sum+c < sum {
			return fmt.Errorf("stats: sketch bucket mass overflows")
		}
		sum += c
	}
	if sum != st.Count {
		return fmt.Errorf("stats: sketch count %d != zero %d + bucket mass %d", st.Count, st.Zero, sum-st.Zero)
	}
	return nil
}

// SketchFromState rebuilds a sketch from exported state (the generic
// FromState round-trip).
func SketchFromState(s SketchState) Sketch {
	return FromState[Sketch](s)
}
