package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's contract with BENCHMARK.json (a self-test keeps them
// in step): an untraced run reports exactly endToEnd, a traced run exactly
// perLayer.
type metricDef struct {
	Name, Unit, Better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_pkts_per_s", "pkts/s", "higher"},
	{"ingest_samples_per_s", "samples/s", "higher"},
	{"query_p50_ms", "ms", "lower"},
	{"mixed_ingest_samples_per_s", "samples/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// cpuBuckets are the CPU-profile buckets reported as <bucket>.cpu_frac:
// the repository's internal packages, the standard-library layers the
// service path runs on, the benchmark's own code ("bench"), the Go runtime
// (GC and scheduler work no other bucket claims) and everything else.
var cpuBuckets = []string{
	"eventsim", "netsim", "trace", "packet", "core", "measure", "lda",
	"multiflow", "netflow", "collector", "stats", "topo", "lpm", "ecmp",
	"scenario", "service", "fleet", "queryapi", "swp",
	"json", "http", "net", "syscall",
	"bench", "runtime", "other",
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"scenario.run_s", "s", "lower"},
		{"scenario.allocs_per_run", "count", "lower"},
		{"scenario.alloc_mb_per_run", "MB", "lower"},
		{"scenario.injected_pkts", "count", "higher"},
		{"scenario.samples", "count", "higher"},
		{"scenario.flows", "count", "higher"},
		{"scenario.samples_per_pkt", "ratio", "higher"},
		{"scenario.parallel2_run_s", "s", "lower"},
		{"scenario.parallel2_speedup", "ratio", "higher"},
		{"runtime.gc_cpu_frac", "frac", "lower"},
		{"process.cpu_util", "frac", "lower"},
		{"fleet.route_wait_frac", "frac", "lower"},
		{"service.send_frac", "frac", "lower"},
		{"collector.drain_s", "s", "lower"},
		{"ingest.allocs_per_sample", "count", "lower"},
		{"fleet.frames_sent", "count", "higher"},
		{"fleet.dropped", "count", "lower"},
		{"service.decode_errors", "count", "lower"},
		{"query_p90_ms", "ms", "lower"},
		{"fleet.query_ms", "ms", "lower"},
		{"service.snapshot_ttfb_ms", "ms", "lower"},
		{"service.snapshot_body_ms", "ms", "lower"},
		{"fleet.gather_ms", "ms", "lower"},
		{"fleet.merge_render_ms", "ms", "lower"},
		{"queryapi.snapshot_bytes", "bytes", "lower"},
		{"queryapi.flows_bytes", "bytes", "lower"},
		{"mixed.offered_samples_per_s", "samples/s", "higher"},
		{"mixed.gen_late_ms_p99", "ms", "lower"},
		{"mixed.gen_late_ms_max", "ms", "lower"},
		{"trace_overhead_frac", "frac", "lower"},
		{"host.steal_frac", "frac", "lower"},
	}
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{b + ".cpu_frac", "frac", "lower"})
	}
	return defs
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's metrics and operation counts. Values are
// keyed by name; units come from the definition tables at output time.
type report struct {
	values    map[string]float64
	attempted int64
	failed    int64
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// ops adds operations attempted and failed.
func (r *report) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// finish builds the output line from the metrics of defs, each of which
// must have been measured as a finite number. Measured metrics of the
// other table are left out; a name in neither table is a bug.
func (r *report) finish(defs []metricDef, correct bool) (result, error) {
	out := result{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	known := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[d.Name] = true
	}
	for name := range r.values {
		if !known[name] {
			return out, fmt.Errorf("metric %s is in neither metric table", name)
		}
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return out, fmt.Errorf("metric %s is not finite: %v", d.Name, v)
		}
		out.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("no operation attempted")
	}
	return out, nil
}

// print writes a human-readable table to w.
func (res result) print(w io.Writer) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-32s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}
