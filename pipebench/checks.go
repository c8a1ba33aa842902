package main

import (
	"fmt"
	"math"
	"reflect"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/queryapi"
	"github.com/netmeasure/rlir/internal/scenario"
)

// normalize prepares a scenario result for exact comparison: it blanks the
// engine-selection fields, so sequential and parallel runs compare on
// substance, and canonicalizes NaN floats — an estimator with no samples
// reports NaN error quantiles, and NaN is never DeepEqual to itself. It
// modifies r.
func normalize(r *scenario.Result) *scenario.Result {
	r.Spec.Engine = ""
	r.Spec.Partitions = 0
	canonNaN(reflect.ValueOf(r).Elem())
	return r
}

func canonNaN(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64, reflect.Float32:
		if math.IsNaN(v.Float()) && v.CanSet() {
			v.SetFloat(-123456789.5)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			canonNaN(v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			canonNaN(v.Index(i))
		}
	case reflect.Ptr:
		if !v.IsNil() {
			canonNaN(v.Elem())
		}
	}
}

// sameResult returns nil when got (normalized here) equals the normalized
// reference want, else an error naming the first differing field.
func sameResult(want, got *scenario.Result) error {
	normalize(got)
	if reflect.DeepEqual(want, got) {
		return nil
	}
	wv, gv := reflect.ValueOf(want).Elem(), reflect.ValueOf(got).Elem()
	for i := 0; i < wv.NumField(); i++ {
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			return fmt.Errorf("scenario result differs from the reference run in field %s", wv.Type().Field(i).Name)
		}
	}
	return fmt.Errorf("scenario result differs from the reference run")
}

// sameFlows returns nil when the flow table got equals want exactly, state
// for state, as the /snapshot wire form carries it.
func sameFlows(want, got []collector.FlowAgg) error {
	if len(got) != len(want) {
		return fmt.Errorf("fleet holds %d flows, the capture's result has %d", len(got), len(want))
	}
	w := queryapi.SnapshotOf(want, 0, 0).Flows
	g := queryapi.SnapshotOf(got, 0, 0).Flows
	for i := range w {
		canonNaN(reflect.ValueOf(&w[i]).Elem())
		canonNaN(reflect.ValueOf(&g[i]).Elem())
		if !reflect.DeepEqual(w[i], g[i]) {
			return fmt.Errorf("flow %d (%v) differs between the fleet and the capture's result", i, want[i].Key)
		}
	}
	return nil
}
