package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/fleet"
	"github.com/netmeasure/rlir/internal/netflow"
	"github.com/netmeasure/rlir/internal/scenario"
)

// smallSpec is the incast spec shortened to 20 ms simulated, so a run
// takes milliseconds, with RLI and LDA as its estimators. The full set is
// left out: at this size the sampled estimators' aggregate means land on a
// rounding boundary at seed 1, where the map order they merge in decides
// the last nanosecond, and a run-to-run comparison would flake.
func smallSpec(t *testing.T) scenario.Spec {
	t.Helper()
	sc, ok := scenario.Get("incast")
	if !ok {
		t.Fatal("incast not registered")
	}
	spec := sc.Spec
	spec.Duration = 20 * time.Millisecond
	spec.Deploy.Estimators = []string{"rli", "lda"}
	return spec
}

func mustRun(t *testing.T, spec scenario.Spec) *scenario.Result {
	t.Helper()
	res, err := scenario.RunSeed(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func isCheckError(err error) bool {
	var ce checkError
	return errors.As(err, &ce)
}

func TestSameResultCanonicalizesNaN(t *testing.T) {
	spec := smallSpec(t)
	a, b := mustRun(t, spec), mustRun(t, spec)
	a.Misattribution, b.Misattribution = math.NaN(), math.NaN()
	if reflect.DeepEqual(a, b) {
		t.Fatal("NaN fields compared equal without canonicalization")
	}
	if err := sameResult(normalize(a), b); err != nil {
		t.Fatalf("equal runs with NaN fields: %v", err)
	}
}

func TestSameResultRejectsPerturbedRun(t *testing.T) {
	spec := smallSpec(t)
	ref := normalize(mustRun(t, spec))
	for name, perturb := range map[string]func(*scenario.Result){
		"injected":  func(r *scenario.Result) { r.Injected++ },
		"flow":      func(r *scenario.Result) { r.Fleet[len(r.Fleet)/2].Est.Add(1) },
		"estimator": func(r *scenario.Result) { r.Comparison[0].Flows++ },
	} {
		got := mustRun(t, spec)
		perturb(got)
		if err := sameResult(ref, got); err == nil {
			t.Errorf("%s perturbation accepted", name)
		}
	}
	par := spec
	par.Engine, par.Partitions = scenario.EngineParallel, 2
	if err := sameResult(ref, mustRun(t, par)); err != nil {
		t.Errorf("parallel engine run differs: %v", err)
	}
}

// preloaded starts a fleet holding one pass of the small capture.
func preloaded(t *testing.T, tr *tracer) (*fleetUnderTest, *scenario.Trace) {
	t.Helper()
	capture, err := scenario.Export(smallSpec(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := startFleet(tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.close)
	var st replayStats
	err = f.replaySegment(capture.Samples, 1, tr, &st)
	if err != nil || st.ingested != st.routed || st.routed != uint64(len(capture.Samples)) {
		t.Fatalf("preload: %+v, %v", st, err)
	}
	return f, capture
}

func TestFleetEquivalenceRejectsPerturbedFlow(t *testing.T) {
	f, capture := preloaded(t, nil)
	merged, err := f.mergedSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := sameFlows(capture.Result.Fleet, merged); err != nil {
		t.Fatalf("unperturbed fleet: %v", err)
	}
	for name, perturb := range map[string]func([]collector.FlowAgg) []collector.FlowAgg{
		"welford": func(a []collector.FlowAgg) []collector.FlowAgg { a[7].Est.Add(1); return a },
		"sketch":  func(a []collector.FlowAgg) []collector.FlowAgg { a[7].Sketch.Record(time.Second); return a },
		"packets": func(a []collector.FlowAgg) []collector.FlowAgg { a[7].Packets++; return a },
		"missing": func(a []collector.FlowAgg) []collector.FlowAgg { return a[1:] },
	} {
		got, err := f.mergedSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := sameFlows(capture.Result.Fleet, perturb(got)); err == nil {
			t.Errorf("%s perturbation accepted", name)
		}
	}
}

func TestIngestEndCheck(t *testing.T) {
	f, capture := preloaded(t, nil)
	n := uint64(len(capture.Samples))
	rep := newReport()
	if err := checkIngestEnd(f, n, 0, rep); err != nil {
		t.Fatalf("exact count: %v", err)
	}
	if rep.values["service.decode_errors"] != 0 {
		t.Errorf("decode errors %v", rep.values["service.decode_errors"])
	}
	for _, c := range []struct{ expect, dropped uint64 }{{n + 1, 0}, {n - 1, 0}, {n, 1}} {
		if err := checkIngestEnd(f, c.expect, c.dropped, rep); !isCheckError(err) {
			t.Errorf("expect %d dropped %d: %v; want a check failure", c.expect, c.dropped, err)
		}
	}
}

func TestFleetSetupAppliesScenarioCheck(t *testing.T) {
	sc, _ := scenario.Get("incast")
	perturbed := func(r *scenario.Result) error {
		p := *r
		p.HotLinkUtil = 0
		return sc.Check(&p)
	}
	_, err := fleetSetup(smallSpec(t), 1, 1, perturbed, nil, newReport())
	if !isCheckError(err) {
		t.Fatalf("incast check on a perturbed result: %v; want a check failure", err)
	}
}

func TestQueryChecks(t *testing.T) {
	tr := newTracer()
	f, capture := preloaded(t, tr)
	rows := len(capture.Result.Fleet)
	from := tr.now()
	qs, err := f.queryUnderIngest(capture.Samples, rows, 200_000, 0, 12, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkQueries(qs, rows, newReport()); err != nil {
		t.Fatalf("good answers: %v", err)
	}
	if qs.attempted != 12 || len(qs.latMs) != 12 || qs.sent == 0 || qs.unIngest != 0 {
		t.Errorf("query phase %+v", qs)
	}
	// Every traced query has one instance span per fleet instance, and the
	// per-layer report is complete.
	rep := newReport()
	err = reportQueryLayers(rep, qs, tr, from, tr.now())
	if err != nil && !strings.Contains(err.Error(), "lateness") {
		t.Fatal(err)
	}
	if rep.values["fleet.query_ms"] <= 0 || rep.values["fleet.gather_ms"] > rep.values["fleet.query_ms"] {
		t.Errorf("query %v ms, gather %v ms", rep.values["fleet.query_ms"], rep.values["fleet.gather_ms"])
	}

	for name, perturb := range map[string]func(*queryStats){
		"failed request": func(q *queryStats) { q.failed = 1 },
		"row count":      func(q *queryStats) { q.badRows = 1 },
		"body":           func(q *queryStats) { q.lastBody = q.lastBody[:len(q.lastBody)/2] },
		"dropped row": func(q *queryStats) {
			var rows []json.RawMessage
			if err := json.Unmarshal(q.lastBody, &rows); err != nil {
				t.Fatal(err)
			}
			q.lastBody, _ = json.Marshal(rows[1:])
		},
	} {
		bad := qs
		perturb(&bad)
		if err := checkQueries(bad, rows, newReport()); !isCheckError(err) {
			t.Errorf("%s: %v; want a check failure", name, err)
		}
	}
	wrong, err := f.queryUnderIngest(capture.Samples, rows+1, 200_000, 0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wrong.badRows != 3 || !isCheckError(checkQueries(wrong, rows+1, newReport())) {
		t.Errorf("answers checked against a wrong row count: %d bad", wrong.badRows)
	}
}

// stallSink is an in-memory router sink whose first send blocks for stall.
type stallSink struct {
	stall time.Duration
	once  sync.Once
}

func (s *stallSink) Hello(string) error { return nil }
func (s *stallSink) SendSamples([]collector.Sample) error {
	s.once.Do(func() { time.Sleep(s.stall) })
	return nil
}
func (s *stallSink) SendRecords([]netflow.Record) error { return nil }
func (s *stallSink) Flush() error                       { return nil }
func (s *stallSink) Close() error                       { return nil }

// TestGeneratorKeepsSchedule stalls the generator's sink early on: the
// batches behind the stall are late by about the stall, and the generator
// then catches up to the offered rate instead of slipping its schedule.
func TestGeneratorKeepsSchedule(t *testing.T) {
	const rate, stall, run = 200_000.0, 150 * time.Millisecond, 500 * time.Millisecond
	r, err := fleet.NewRouter(fleet.Config{
		Endpoints: []string{"a"},
		Queue:     2,
		Dial:      func(string, int) (fleet.Sink, error) { return &stallSink{stall: stall}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	samples := make([]collector.Sample, 1000)
	stop := make(chan struct{})
	time.AfterFunc(run, func() { close(stop) })
	sent, late := generate(r, samples, rate, stop)
	if want := rate * run.Seconds(); float64(sent) < 0.9*want || float64(sent) > 1.1*want {
		t.Errorf("sent %d samples in %v, offered %v", sent, run, want)
	}
	if len(late) == 0 || maxOf(late) < 0.5*ms(stall) {
		t.Errorf("max lateness %v ms after a %v stall", maxOf(late), stall)
	}
	for _, l := range late {
		if l < 0 {
			t.Fatalf("negative lateness %v", l)
		}
	}
}

func TestRunRejectsBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sim-fattree", "--trace", "2"},
		{"--workload", "sim-fattree", "--seconds", "0"},
		{"--workload", "sim-fattree", "extra"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q", args, code, out.String())
		}
	}
}

// TestInstanceFaultsFailTheCheck serves stub instances that answer
// /snapshot and /metrics wrongly: each fault is a failed check, not an
// environment error.
func TestInstanceFaultsFailTheCheck(t *testing.T) {
	for name, h := range map[string]http.HandlerFunc{
		"status": func(w http.ResponseWriter, r *http.Request) { http.Error(w, "down", http.StatusInternalServerError) },
		"schema": func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, `{"version": 1, "flows": []}`)
		},
		"no counter": func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, "rlird_samples_ingested_total 3\n")
		},
	} {
		stub := httptest.NewServer(h)
		f := &fleetUnderTest{instances: []string{stub.URL}}
		if _, err := f.mergedSnapshot(); !isCheckError(err) {
			t.Errorf("%s: /snapshot gave %v; want a check failure", name, err)
		}
		if _, err := f.decodeErrors(); !isCheckError(err) {
			t.Errorf("%s: /metrics gave %v; want a check failure", name, err)
		}
		stub.Close()
	}
}

// TestUntracedQueriesRecordNoSpans runs queries with and without the
// query header through a traced front-end: only the traced ones leave
// instance spans.
func TestUntracedQueriesRecordNoSpans(t *testing.T) {
	tr := newTracer()
	f, capture := preloaded(t, tr)
	rows := len(capture.Result.Fleet)
	if _, err := f.queryUnderIngest(capture.Samples, rows, 200_000, 0, 3, nil); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.named("fleet.instance", 0, tr.now())); n != 0 {
		t.Fatalf("untraced queries left %d instance spans", n)
	}
	if _, err := f.queryUnderIngest(capture.Samples, rows, 200_000, 0, 3, tr); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.named("fleet.instance", 0, tr.now())); n != 3*fleetInstances {
		t.Errorf("3 traced queries left %d instance spans, want %d", n, 3*fleetInstances)
	}
}
