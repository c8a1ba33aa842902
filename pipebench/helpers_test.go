package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 50, 50},
		{100, 90, 90},
		{20, 50, 10},
		{1000, 99, 990},
		{101, 90, 91}, // rank ceil(90.9) = 91
	} {
		got, err := percentile(seq(c.n), c.p)
		if err != nil || got != c.want {
			t.Errorf("p%v of 1..%d = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{
		{19, 50},  // rank 10, 9 beyond
		{99, 90},  // rank 90, 9 beyond
		{100, 91}, // rank 91, 9 beyond
		{999, 99}, // rank 990, 9 beyond
		{0, 50},
	} {
		if v, err := percentile(seq(c.n), c.p); err == nil {
			t.Errorf("p%v of %d samples = %v; want a refusal", c.p, c.n, v)
		}
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := percentile(seq(1000), p); err == nil {
			t.Errorf("p%v accepted", p)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestHostClock(t *testing.T) {
	stat := []byte("cpu  600 0 100 200 0 0 0 100 40 0\ncpu0 300 0 50 100 0 0 0 50 20 0\n")
	if steal, total := parseCPUTicks(stat); steal != 100 || total != 1000 {
		t.Errorf("parseCPUTicks = %d, %d; want 100, 1000", steal, total)
	}
	for _, bad := range []string{"", "intr 1 2 3\n", "cpu 1 2 x 4 5 6 7 8\n", "cpu 1 2 3\n"} {
		if steal, total := parseCPUTicks([]byte(bad)); steal != 0 || total != 0 {
			t.Errorf("parseCPUTicks(%q) = %d, %d; want zeros", bad, steal, total)
		}
	}
	t0 := time.Unix(100, 0)
	a := clockReading{wall: t0, steal: 50, total: 1000}
	b := clockReading{wall: t0.Add(2 * time.Second), steal: 150, total: 1400}
	if got := a.hostSince(b); got != 1500*time.Millisecond {
		t.Errorf("host time with a quarter stolen = %v, want 1.5s", got)
	}
	// Counters that did not advance (or could not be read) leave wall time.
	c := clockReading{wall: t0.Add(time.Second)}
	if got := a.hostSince(c); got != time.Second {
		t.Errorf("host time without counters = %v, want 1s", got)
	}
}

func TestMetricNameCheck(t *testing.T) {
	for _, ok := range []string{"setup_s", "scenario.run_s", "a-b_c.d", "9x", strings.Repeat("a", 64)} {
		if !validMetricName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", ".x", "_x", "a b", "a/b", "ms\n", "naïve", strings.Repeat("a", 65)} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestMetricTables checks the reported metric set: valid unique names and
// units, and exactly the metrics and workloads BENCHMARK.json declares.
func TestMetricTables(t *testing.T) {
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validMetricName(d.Name) || seen[d.Name] {
			t.Errorf("bad or repeated metric name %q", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

func TestReportFinish(t *testing.T) {
	full := func() *report {
		r := newReport()
		for i, d := range endToEnd {
			r.set(d.Name, float64(i+1))
		}
		r.set("fleet.query_ms", 3) // a per-layer value is left out of an untraced result
		r.ops(10, 1)
		return r
	}
	res, err := full().finish(endToEnd, true)
	if err != nil || len(res.Metrics) != len(endToEnd) || res.Attempted != 10 || res.Failed != 1 {
		t.Fatalf("finish = %+v, %v", res, err)
	}
	if res.Metrics["setup_s"].Unit != "s" {
		t.Errorf("setup_s unit %q", res.Metrics["setup_s"].Unit)
	}
	r := full()
	delete(r.values, "query_p50_ms")
	if _, err := r.finish(endToEnd, true); err == nil {
		t.Error("missing metric accepted")
	}
	r = full()
	r.set("query_p99_ms", 1)
	if _, err := r.finish(endToEnd, true); err == nil {
		t.Error("metric outside both tables accepted")
	}
	r = full()
	r.set("sim_pkts_per_s", math.NaN())
	if _, err := r.finish(endToEnd, true); err == nil {
		t.Error("NaN accepted")
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, c := range []struct {
		kids []span
		want time.Duration
	}{
		{nil, 100},
		// [10,40] overlapping pair, [50,60], and [90,120] clipped to 100.
		{[]span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 50, End: 60}, {Start: 90, End: 120}}, 50},
		// Nested and duplicate children count once.
		{[]span{{Start: 10, End: 90}, {Start: 20, End: 30}, {Start: 10, End: 90}}, 20},
		// Children outside the parent cover nothing.
		{[]span{{Start: -50, End: -10}, {Start: 100, End: 150}}, 100},
		{[]span{{Start: -10, End: 200}}, 0},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("selfTime(%v) = %v, want %v", c.kids, got, c.want)
		}
	}
}

func TestFuncBucketing(t *testing.T) {
	for name, want := range map[string]string{
		"github.com/netmeasure/rlir/internal/eventsim.(*Sim).pop":                                                              "eventsim",
		"github.com/netmeasure/rlir/internal/collector.(*shard).run.func1":                                                     "collector",
		"github.com/netmeasure/rlir/internal/stats.FromState[go.shape.struct { github.com/netmeasure/rlir/internal/x.Y int }]": "stats",
		"github.com/netmeasure/rlir/internal/stats.(*Agg[go.shape.*uint8]).Add":                                                "stats",
		"type:.eq.github.com/netmeasure/rlir/internal/packet.FlowKey":                                                          "packet",
		"type:.hash.github.com/netmeasure/rlir/internal/packet.FlowKey":                                                        "packet",
		"encoding/json.(*encodeState).marshal":                                                                                 "json",
		"net/http.(*conn).serve":                                                                                               "http",
		"internal/poll.(*FD).Read":                                                                                             "net",
		"syscall.Syscall":                                                                                                      "syscall",
		"internal/runtime/syscall.Syscall6":                                                                                    "syscall",
		"main.runSimFattree":                                                                                                   "bench",
		"github.com/netmeasure/rlir/internal/newpkg.F":                                                                         "other",
		// Transparent: charged to the caller.
		"runtime.mallocgc":                        "",
		"internal/runtime/maps.(*Map).getWithKey": "",
		"reflect.deepValueEqual":                  "",
		"sort.Slice":                              "",
		"type:.eq.[2]interface {}":                "",
	} {
		if got := bucketOf(funcPackage(name)); got != want {
			t.Errorf("bucket(%q) = %q (package %q), want %q", name, got, funcPackage(name), want)
		}
	}
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "runtime.growslice", "github.com/netmeasure/rlir/internal/packet.(*Packet).RecordHop"}, "packet"},
		{[]string{"reflect.deepValueEqual", "reflect.DeepEqual", "main.sameResult"}, "bench"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"compress/flate.(*compressor).deflate", "runtime/pprof.profileWriter"}, "other"},
		{nil, "other"},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

var sink uint64

// spin burns CPU in this package for d. The accumulator is local, so a
// race-instrumented build does not spend the loop in the race runtime.
func spin(d time.Duration) {
	x := sink
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
}

// TestCPUProfileParse profiles a busy loop in this package across two
// segments and checks the parsed shares.
func TestCPUProfileParse(t *testing.T) {
	p := newCPUProfile()
	for i := 0; i < 2; i++ {
		if err := p.start(); err != nil {
			t.Fatal(err)
		}
		spin(300 * time.Millisecond)
		if err := p.stop(); err != nil {
			t.Fatal(err)
		}
	}
	if p.total < 20 {
		t.Fatalf("only %d profile samples", p.total)
	}
	fr := p.fractions()
	sum := 0.0
	for _, b := range cpuBuckets {
		sum += fr[b]
	}
	if len(fr) != len(cpuBuckets) || sum < 0.999 || sum > 1.001 {
		t.Errorf("fractions %v sum to %v", fr, sum)
	}
	if fr["bench"] < 0.8 {
		t.Errorf("busy loop in the benchmark's own code got %.2f of samples: %v", fr["bench"], fr)
	}
	var nilProf *cpuProfile
	if nilProf.start() != nil || nilProf.stop() != nil || len(nilProf.fractions()) != len(cpuBuckets) {
		t.Error("nil profile is not a no-op")
	}
}
