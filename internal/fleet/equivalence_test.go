package fleet_test

// The fleet acceptance pin: a fleet of N rlird instances fed through
// fleet.Router must answer — through the scatter-gather front-end — with
// exactly the flow table and comparison a single node (the batch engine)
// produces for the same export stream, for N = 1, 2 and 4. This package is
// an external test (fleet_test) so it may import internal/service and
// internal/scenario; the fleet package itself must not (scenario imports
// fleet, and the service tests import scenario).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/fleet"
	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/queryapi"
	"github.com/netmeasure/rlir/internal/scenario"
	"github.com/netmeasure/rlir/internal/service"
)

// testFleet is N live rlird instances plus the front-end serving them.
type testFleet struct {
	servers []*service.Server
	front   *httptest.Server
}

// startFleet boots n service instances (TCP ingest + HTTP query API, both
// on ephemeral ports) and a scatter-gather front-end over them.
func startFleet(t testing.TB, n int) *testFleet {
	t.Helper()
	tf := &testFleet{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		s, err := service.New(service.Config{Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0", Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		tf.servers = append(tf.servers, s)
		urls[i] = "http://" + s.HTTPAddr().String()
	}
	front, err := fleet.NewFrontend(fleet.FrontendConfig{Instances: urls, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	tf.front = httptest.NewServer(front.Handler())
	t.Cleanup(func() {
		tf.front.Close()
		for _, s := range tf.servers {
			_ = s.Shutdown(context.Background())
		}
	})
	return tf
}

// ingestAddrs returns the instances' wire-ingest addresses in order.
func (tf *testFleet) ingestAddrs() []string {
	out := make([]string, len(tf.servers))
	for i, s := range tf.servers {
		out[i] = s.Addr().String()
	}
	return out
}

// waitIngested blocks until the fleet as a whole holds want samples.
func (tf *testFleet) waitIngested(t testing.TB, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var got uint64
		for _, s := range tf.servers {
			got += s.Collector().SamplesIngested()
		}
		if got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet ingested %d of %d samples before timeout", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// routeTrace streams a captured export through a fleet.Router into the
// fleet, two connections per endpoint, and waits for full ingestion.
func (tf *testFleet) routeTrace(t testing.TB, tr *scenario.Trace) {
	t.Helper()
	r, err := fleet.NewRouter(fleet.Config{
		Endpoints:        tf.ingestAddrs(),
		ConnsPerEndpoint: 2,
		Name:             "replay",
		Dial: func(endpoint string, conn int) (fleet.Sink, error) {
			return service.Dial("tcp", endpoint, 0)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 300
	for off := 0; off < len(tr.Samples); off += chunk {
		end := off + chunk
		if end > len(tr.Samples) {
			end = len(tr.Samples)
		}
		r.RouteSamples(tr.Samples[off:end])
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	tf.waitIngested(t, uint64(len(tr.Samples)))
}

func getJSON(t testing.TB, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("decode %s: %v\n%s", url, err, body)
	}
	return resp.StatusCode
}

func exportBaseline(t testing.TB) *scenario.Trace {
	t.Helper()
	sc, ok := scenario.Get("baseline-tandem")
	if !ok {
		t.Fatal("baseline-tandem not registered")
	}
	tr, err := scenario.Export(sc.Spec, sc.Spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Samples) == 0 {
		t.Fatal("empty export")
	}
	return tr
}

func floatPtrEq(a, b *float64) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || *a == *b
}

// TestFleetOfNMatchesSingleNode is the acceptance criterion: for N = 1, 2
// and 4, the front-end's /flows and /comparison over a partitioned fleet
// are field-for-field identical to the batch engine's single-node answer
// for the same export stream.
func TestFleetOfNMatchesSingleNode(t *testing.T) {
	tr := exportBaseline(t)
	batch := tr.Result.Fleet // the single-node reference flow table

	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			tf := startFleet(t, n)
			tf.routeTrace(t, tr)

			var flows []queryapi.FlowJSON
			if code := getJSON(t, tf.front.URL+"/flows", &flows); code != http.StatusOK {
				t.Fatalf("/flows status %d", code)
			}
			if len(flows) != len(batch) {
				t.Fatalf("fleet /flows has %d rows, single node has %d", len(flows), len(batch))
			}
			for i := range batch {
				want := queryapi.FlowRow(&batch[i])
				if flows[i] != want {
					t.Fatalf("N=%d flow %d diverged:\nfleet  %+v\nsingle %+v", n, i, flows[i], want)
				}
			}

			var got []queryapi.ComparisonJSON
			if code := getJSON(t, tf.front.URL+"/comparison", &got); code != http.StatusOK {
				t.Fatalf("/comparison status %d", code)
			}
			want := queryapi.ComparisonRow(measure.CompareFlowAggs("rli", batch))
			if len(got) != 1 {
				t.Fatalf("/comparison has %d rows", len(got))
			}
			if got[0].Estimator != want.Estimator || got[0].Flows != want.Flows ||
				got[0].Samples != want.Samples || got[0].AggMeanNs != want.AggMeanNs ||
				got[0].AggSamples != want.AggSamples ||
				!floatPtrEq(got[0].MedianRelErr, want.MedianRelErr) ||
				!floatPtrEq(got[0].P99RelErr, want.P99RelErr) ||
				!floatPtrEq(got[0].AggRelErr, want.AggRelErr) {
				t.Fatalf("N=%d /comparison diverged:\nfleet  %+v\nsingle %+v", n, got[0], want)
			}
		})
	}
}

// TestFrontendAnnotatesRouters checks /routers carries every exporter
// identity the router announced, tagged with the instance that saw it.
func TestFrontendAnnotatesRouters(t *testing.T) {
	tr := exportBaseline(t)
	tf := startFleet(t, 2)
	tf.routeTrace(t, tr)

	var rows []queryapi.RouterJSON
	if code := getJSON(t, tf.front.URL+"/routers", &rows); code != http.StatusOK {
		t.Fatalf("/routers status %d", code)
	}
	if len(rows) != 4 { // 2 endpoints x 2 conns, one hello identity each
		t.Fatalf("/routers has %d rows, want 4", len(rows))
	}
	var samples uint64
	for _, r := range rows {
		if r.Instance == "" {
			t.Fatalf("row %q missing instance annotation", r.Router)
		}
		samples += r.Samples
	}
	if samples != uint64(len(tr.Samples)) {
		t.Fatalf("/routers accounts %d samples, want %d", samples, len(tr.Samples))
	}
}

// TestFrontendDegradedMode kills one instance of two: the merged table must
// shrink to the surviving partition (not error), health must degrade, and
// killing the second instance turns queries into 502 and health into 503.
func TestFrontendDegradedMode(t *testing.T) {
	tr := exportBaseline(t)
	tf := startFleet(t, 2)
	tf.routeTrace(t, tr)

	if err := tf.servers[1].Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	var flows []queryapi.FlowJSON
	if code := getJSON(t, tf.front.URL+"/flows", &flows); code != http.StatusOK {
		t.Fatalf("/flows status %d after one instance down", code)
	}
	want := tf.servers[0].Snapshot()
	if len(flows) != len(want) {
		t.Fatalf("degraded /flows has %d rows, surviving instance holds %d", len(flows), len(want))
	}
	for i := range want {
		if flows[i] != queryapi.FlowRow(&want[i]) {
			t.Fatalf("degraded flow %d diverged", i)
		}
	}

	var h fleet.HealthJSON
	if code := getJSON(t, tf.front.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("/healthz status %d, want 200 while degraded", code)
	}
	if h.Status != "degraded" || h.InstancesOK != 1 || h.Instances != 2 {
		t.Fatalf("health %+v, want degraded 1/2", h)
	}

	if err := tf.servers[0].Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(tf.front.URL + "/flows")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("/flows status %d with the whole fleet down, want 502", resp.StatusCode)
	}
	code := getJSON(t, tf.front.URL+"/healthz", &h)
	if code != http.StatusServiceUnavailable || h.Status != "down" {
		t.Fatalf("/healthz %d %q with the whole fleet down, want 503 down", code, h.Status)
	}
}

// TestFrontendConfigErrors pins NewFrontend's validation.
func TestFrontendConfigErrors(t *testing.T) {
	if _, err := fleet.NewFrontend(fleet.FrontendConfig{}); err == nil {
		t.Fatal("empty instance list accepted")
	}
	for _, bad := range []string{"127.0.0.1:7172", "ftp://host", "http://"} {
		if _, err := fleet.NewFrontend(fleet.FrontendConfig{Instances: []string{bad}}); err == nil {
			t.Fatalf("bad instance URL %q accepted", bad)
		}
	}
}

// TestRouterOverReliableTransport runs the same equivalence with swp-framed
// sinks — the Router is framing-agnostic because the dialer chooses — and
// checks the aggregated transport counters survive Close.
func TestRouterOverReliableTransport(t *testing.T) {
	tr := exportBaseline(t)
	tf := startFleet(t, 2)
	r, err := fleet.NewRouter(fleet.Config{
		Endpoints: tf.ingestAddrs(),
		Name:      "rel",
		Dial: func(endpoint string, conn int) (fleet.Sink, error) {
			return service.DialWith(service.DialOptions{Addr: endpoint, Reliable: true})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 400
	for off := 0; off < len(tr.Samples); off += chunk {
		end := off + chunk
		if end > len(tr.Samples) {
			end = len(tr.Samples)
		}
		r.RouteSamples(tr.Samples[off:end])
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	st, ok := r.TransportStats()
	if !ok || st.Segments == 0 {
		t.Fatalf("no transport stats from reliable sinks: %+v ok=%v", st, ok)
	}
	tf.waitIngested(t, uint64(len(tr.Samples)))

	var flows []queryapi.FlowJSON
	getJSON(t, tf.front.URL+"/flows", &flows)
	batch := tr.Result.Fleet
	if len(flows) != len(batch) {
		t.Fatalf("reliable fleet /flows has %d rows, want %d", len(flows), len(batch))
	}
	for i := range batch {
		if flows[i] != queryapi.FlowRow(&batch[i]) {
			t.Fatalf("reliable flow %d diverged", i)
		}
	}
	// Sanity: the partitions really were disjoint and non-trivial for N=2.
	a := tf.servers[0].Collector().SamplesIngested()
	b := tf.servers[1].Collector().SamplesIngested()
	if a == 0 || b == 0 {
		t.Fatalf("degenerate partition: %d / %d samples", a, b)
	}
}

// TestFrontendRejectsStaleSnapshot pins the snapshot schema gate at the
// fleet boundary: an instance speaking an older snapshot version is skipped
// like an unreachable one (degraded service, never silently-wrong merges),
// and a fleet made only of stale instances turns /flows into a 502 whose
// body names both versions.
func TestFrontendRejectsStaleSnapshot(t *testing.T) {
	// A pre-versioning peer: its /snapshot body carries no "version" field,
	// so it decodes as version 0.
	stale := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"samples":7,"records":0,"flows":[]}`)
	}))
	defer stale.Close()

	s, err := service.New(service.Config{Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	s.Collector().Ingest([]collector.Sample{{
		Key: packet.FlowKey{Src: 0x0a000001, Dst: 0x0a000002, SrcPort: 1000, DstPort: 443, Proto: packet.ProtoTCP},
		Est: time.Millisecond,
	}})

	front, err := fleet.NewFrontend(fleet.FrontendConfig{
		Instances: []string{"http://" + s.HTTPAddr().String(), stale.URL},
		Timeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	mixed := httptest.NewServer(front.Handler())
	defer mixed.Close()

	var flows []queryapi.FlowJSON
	if code := getJSON(t, mixed.URL+"/flows", &flows); code != http.StatusOK {
		t.Fatalf("/flows status %d with one stale instance, want 200 degraded", code)
	}
	if len(flows) != 1 {
		t.Fatalf("/flows has %d rows, want only the current instance's 1", len(flows))
	}

	lone, err := fleet.NewFrontend(fleet.FrontendConfig{
		Instances: []string{stale.URL},
		Timeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	loneSrv := httptest.NewServer(lone.Handler())
	defer loneSrv.Close()
	resp, err := http.Get(loneSrv.URL + "/flows")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("/flows status %d over an all-stale fleet, want 502", resp.StatusCode)
	}
	for _, want := range []string{"version 0", fmt.Sprintf("version %d", queryapi.SnapshotVersion)} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("502 body must name %q, got:\n%s", want, body)
		}
	}
}

// TestFrontendRollupAnnotatesInstances checks /rollup is a per-instance
// gather (eviction contents depend on each instance's arrival order, so the
// front-end annotates rather than merges) whose accounting covers the fleet.
func TestFrontendRollupAnnotatesInstances(t *testing.T) {
	tr := exportBaseline(t)
	tf := startFleet(t, 2)
	tf.routeTrace(t, tr)

	var rows []queryapi.RollupJSON
	if code := getJSON(t, tf.front.URL+"/rollup", &rows); code != http.StatusOK {
		t.Fatalf("/rollup status %d", code)
	}
	if len(rows) != 2 {
		t.Fatalf("/rollup has %d rows, want one per instance", len(rows))
	}
	tracked := 0
	seen := map[string]bool{}
	for _, r := range rows {
		if r.Instance == "" {
			t.Fatal("rollup row missing instance annotation")
		}
		seen[r.Instance] = true
		tracked += r.FlowsTracked
		if r.FlowsEvicted != 0 || r.FlowsExpired != 0 {
			t.Fatalf("uncapped instance reports evictions: %+v", r)
		}
	}
	if len(seen) != 2 {
		t.Fatalf("rollup rows name %d distinct instances, want 2", len(seen))
	}
	if tracked != len(tr.Result.Fleet) {
		t.Fatalf("fleet tracks %d flows across rollups, single node holds %d", tracked, len(tr.Result.Fleet))
	}
}

// badPeerFleet fronts one honest instance holding flow key at ~49.7µs and
// the given stub peer. It returns the front-end URL and the honest
// instance's snapshot — the healthy subset the fleet must answer with.
func badPeerFleet(t *testing.T, key packet.FlowKey, peer http.HandlerFunc) (string, []collector.FlowAgg) {
	t.Helper()
	stub := httptest.NewServer(peer)
	t.Cleanup(stub.Close)
	s, err := service.New(service.Config{Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	honest := make([]collector.Sample, 20)
	for i := range honest {
		honest[i] = collector.Sample{Key: key, Est: 49700 * time.Nanosecond}
	}
	s.Collector().Ingest(honest)
	for s.Collector().SamplesIngested() < uint64(len(honest)) {
		time.Sleep(time.Millisecond)
	}
	front, err := fleet.NewFrontend(fleet.FrontendConfig{
		Instances: []string{"http://" + s.HTTPAddr().String(), stub.URL},
		Timeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(front.Handler())
	t.Cleanup(srv.Close)
	return srv.URL, s.Snapshot()
}

// assertHealthySubset checks the front-end's /flows is exactly the honest
// instance's rows and that the bad peer counted as a gather error.
func assertHealthySubset(t *testing.T, url string, want []collector.FlowAgg) {
	t.Helper()
	var flows []queryapi.FlowJSON
	if code := getJSON(t, url+"/flows", &flows); code != http.StatusOK {
		t.Fatalf("/flows status %d with one bad peer, want 200 degraded", code)
	}
	if len(flows) != len(want) {
		t.Fatalf("/flows has %d rows, the healthy instance holds %d", len(flows), len(want))
	}
	for i := range want {
		if flows[i] != queryapi.FlowRow(&want[i]) {
			t.Fatalf("flow %d: got %+v, want the healthy instance's %+v", i, flows[i], queryapi.FlowRow(&want[i]))
		}
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), "rlirfleet_gather_errors_total 0\n") ||
		!strings.Contains(string(body), "rlirfleet_gather_errors_total ") {
		t.Fatalf("bad peer not counted as a gather error:\n%s", body)
	}
}

// TestFrontendRejectsOversizedPeer pins the body bound: a peer whose
// otherwise valid snapshot (one extra flow) arrives behind MaxPeerBody
// bytes of padding is a failed gather, not an unbounded read.
func TestFrontendRejectsOversizedPeer(t *testing.T) {
	key := packet.FlowKey{Src: 0x0a000001, Dst: 0x0a000002, SrcPort: 1000, DstPort: 443, Proto: packet.ProtoTCP}
	other := collector.New(collector.Config{Shards: 1})
	other.Ingest([]collector.Sample{{Key: packet.FlowKey{Src: 0x0a000003, Dst: 0x0a000004, Proto: packet.ProtoTCP}, Est: time.Microsecond}})
	other.Close()
	body, err := json.Marshal(queryapi.SnapshotOf(other.Snapshot(), 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	url, want := badPeerFleet(t, key, func(w http.ResponseWriter, r *http.Request) {
		pad := []byte(strings.Repeat(" ", 1<<16))
		for sent := 0; sent < fleet.MaxPeerBody; sent += len(pad) {
			if _, err := w.Write(pad); err != nil {
				return
			}
		}
		w.Write(body)
	})
	assertHealthySubset(t, url, want)
}

// TestFrontendRejectsInflatedSketchPeer is the fleet half of the sketch
// state check: a peer whose sketch claims 50x the mass its buckets hold
// would drag the merged p50 from the honest 49.7µs to its own 100µs; the
// front-end degrades that peer instead.
func TestFrontendRejectsInflatedSketchPeer(t *testing.T) {
	key := packet.FlowKey{Src: 0x0a000001, Dst: 0x0a000002, SrcPort: 1000, DstPort: 443, Proto: packet.ProtoTCP}
	liar := collector.New(collector.Config{Shards: 1})
	forged := make([]collector.Sample, 20)
	for i := range forged {
		forged[i] = collector.Sample{Key: key, Est: 100 * time.Microsecond}
	}
	liar.Ingest(forged)
	liar.Close()
	snap := queryapi.SnapshotOf(liar.Snapshot(), uint64(len(forged)), 0)
	snap.Flows[0].Sketch.Count *= 50
	body, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	url, want := badPeerFleet(t, key, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})

	// The forgery bites when merged unchecked.
	naive := collector.Merge(want, snap.Aggs())
	if honest, forged := want[0].Sketch.Quantile(0.5), naive[0].Sketch.Quantile(0.5); forged < 1.9*honest {
		t.Fatalf("unchecked merge p50 %v vs honest %v: the forged peer should dominate", forged, honest)
	}
	assertHealthySubset(t, url, want)
}
