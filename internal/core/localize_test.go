package core

import (
	"testing"
	"time"
)

func rep(name string, delay time.Duration) SegmentReport {
	return SegmentReport{Name: name, Estimates: 1, Delay: delay}
}

func TestLocalizerFlagsInflatedSegment(t *testing.T) {
	reports := []SegmentReport{
		rep("T1->C1", 11*time.Microsecond),
		rep("C1->T7", 1000*time.Microsecond),
		rep("T1->C2", 12*time.Microsecond),
	}
	l := NewLocalizer(3)
	l.SetBaseline("T1->C1", 11*time.Microsecond)
	l.SetBaseline("C1->T7", 11*time.Microsecond)
	l.SetBaseline("T1->C2", 11*time.Microsecond)

	anomalies := l.Examine(reports)
	if len(anomalies) != 1 {
		t.Fatalf("anomalies = %v", anomalies)
	}
	if anomalies[0].Segment != "C1->T7" {
		t.Fatalf("flagged %q", anomalies[0].Segment)
	}
	if anomalies[0].Ratio < 50 {
		t.Fatalf("ratio = %v, expected huge", anomalies[0].Ratio)
	}
	if anomalies[0].String() == "" {
		t.Fatal("empty anomaly string")
	}
}

func TestLocalizerFallbackBaseline(t *testing.T) {
	// Without baselines, segments are compared to the median segment level:
	// with two healthy and one sick segment, only the sick one is flagged.
	reports := []SegmentReport{
		rep("a", 10*time.Microsecond),
		rep("b", 12*time.Microsecond),
		rep("c", 500*time.Microsecond),
	}
	anomalies := NewLocalizer(5).Examine(reports)
	if len(anomalies) != 1 || anomalies[0].Segment != "c" {
		t.Fatalf("anomalies = %v", anomalies)
	}
}

func TestLocalizerCalibrateFrom(t *testing.T) {
	reports := []SegmentReport{rep("a", 10*time.Microsecond)}
	l := NewLocalizer(2)
	l.CalibrateFrom(reports)
	if got := l.Baseline["a"]; got != 10*time.Microsecond {
		t.Fatalf("calibrated baseline = %v", got)
	}
	if len(l.Examine(reports)) != 0 {
		t.Fatal("freshly calibrated segments should not be anomalous")
	}
}

func TestLocalizerOrdering(t *testing.T) {
	reports := []SegmentReport{
		rep("bad", 500*time.Microsecond),
		rep("worse", 2*time.Millisecond),
	}
	l := NewLocalizer(2)
	l.SetBaseline("worse", 10*time.Microsecond)
	l.SetBaseline("bad", 10*time.Microsecond)
	anomalies := l.Examine(reports)
	if len(anomalies) != 2 || anomalies[0].Segment != "worse" {
		t.Fatalf("ordering wrong: %v", anomalies)
	}
}

func TestLocalizerThresholdValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLocalizer(1)
}
