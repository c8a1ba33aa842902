package core

import (
	"fmt"
	"sort"
	"time"
)

// SegmentReport is one measured path segment's latency level. RLIR's value
// proposition is that a path's segments are measured independently, so a
// latency anomaly is localized to the segment whose level shifted (§1:
// partial deployment costs only "an increase in the localization
// granularity").
type SegmentReport struct {
	// Name identifies the segment ("core0.1->tor3.0").
	Name string
	// Estimates counts the per-packet estimates behind Delay.
	Estimates int64
	// Delay is the segment's estimated latency level. Any location
	// statistic works (a mean, a median) as long as the calibration and
	// the examined reports of one segment use the same one.
	Delay time.Duration
}

// Anomaly is a flagged segment.
type Anomaly struct {
	Segment  string
	Delay    time.Duration
	Baseline time.Duration
	Ratio    float64
}

func (a Anomaly) String() string {
	return fmt.Sprintf("%s: %v vs baseline %v (%.1fx)", a.Segment, a.Delay, a.Baseline, a.Ratio)
}

// Localizer flags segments whose latency level exceeds Threshold times
// their recorded baseline. Baselines come from a calibration run (or
// operator knowledge); segments without a baseline are compared against the
// median level of all examined segments.
type Localizer struct {
	// Threshold is the ratio above which a segment is anomalous (e.g. 3.0).
	Threshold float64
	// Baseline maps segment name to its healthy latency level.
	Baseline map[string]time.Duration
}

// NewLocalizer builds a localizer with the given threshold.
func NewLocalizer(threshold float64) *Localizer {
	if threshold <= 1 {
		panic(fmt.Sprintf("core: localizer threshold %v must exceed 1", threshold))
	}
	return &Localizer{Threshold: threshold, Baseline: make(map[string]time.Duration)}
}

// SetBaseline records a segment's healthy latency level.
func (l *Localizer) SetBaseline(segment string, delay time.Duration) {
	l.Baseline[segment] = delay
}

// CalibrateFrom records every report's level as its segment's baseline.
func (l *Localizer) CalibrateFrom(reports []SegmentReport) {
	for _, r := range reports {
		l.SetBaseline(r.Name, r.Delay)
	}
}

// Examine reports anomalous segments, most inflated first.
func (l *Localizer) Examine(reports []SegmentReport) []Anomaly {
	fallback := medianDelay(reports)
	var out []Anomaly
	for _, rep := range reports {
		base, ok := l.Baseline[rep.Name]
		if !ok {
			base = fallback
		}
		if base <= 0 {
			continue
		}
		ratio := float64(rep.Delay) / float64(base)
		if ratio >= l.Threshold {
			out = append(out, Anomaly{Segment: rep.Name, Delay: rep.Delay, Baseline: base, Ratio: ratio})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ratio > out[j].Ratio })
	return out
}

func medianDelay(reports []SegmentReport) time.Duration {
	if len(reports) == 0 {
		return 0
	}
	ds := make([]time.Duration, len(reports))
	for i, r := range reports {
		ds[i] = r.Delay
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}
