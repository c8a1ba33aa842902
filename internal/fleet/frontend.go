package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/queryapi"
)

// FrontendConfig configures a scatter-gather Frontend.
type FrontendConfig struct {
	// Instances are the fleet's query-API base URLs (one rlird each), e.g.
	// "http://127.0.0.1:7172". Required, and order defines instance
	// numbering in reports.
	Instances []string
	// Timeout bounds each fan-out: every instance request of one incoming
	// query shares this budget (default 5s).
	Timeout time.Duration
	// Client issues the instance requests (default http.DefaultClient plus
	// the fan-out timeout).
	Client *http.Client
}

// Frontend answers the rlird query API for a whole fleet: every request
// scatter-gathers the partitioned instances with a bounded timeout and
// merges their answers. The merge is exact, not approximate — /flows and
// /comparison are computed from the instances' raw /snapshot state through
// collector.Merge and the shared queryapi renderers, so a fleet-of-N
// response is field-for-field what a single rlird holding the whole stream
// would serve. Instances that fail to answer are skipped (degraded mode,
// visible in /healthz and /metrics); only a fully-unreachable fleet turns
// into an error status.
type Frontend struct {
	cfg     FrontendConfig
	client  *http.Client
	start   time.Time
	queries atomic.Uint64
	gErrs   atomic.Uint64
}

// NewFrontend validates the instance URLs and builds the front-end.
func NewFrontend(cfg FrontendConfig) (*Frontend, error) {
	if len(cfg.Instances) == 0 {
		return nil, errors.New("fleet: no instances")
	}
	for _, in := range cfg.Instances {
		u, err := url.Parse(in)
		if err != nil {
			return nil, fmt.Errorf("fleet: bad instance URL %q: %w", in, err)
		}
		if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("fleet: bad instance URL %q (want http[s]://host:port)", in)
		}
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	return &Frontend{cfg: cfg, client: client, start: time.Now()}, nil
}

// Instances returns the configured instance count.
func (f *Frontend) Instances() int { return len(f.cfg.Instances) }

// MaxPeerBody caps how much of one instance response the front-end reads.
// Snapshots of the benchmark captures are about 0.5 MB; a body past the cap
// is a failed gather (the instance is degraded), never an unbounded read.
const MaxPeerBody = 64 << 20

// fetch is one instance's response to a fan-out: the decoded body, or the
// transport/decode error that kept it out of the merge.
type fetch struct {
	instance string
	body     []byte
	err      error
}

// gather fans path out to every instance under one Timeout and returns the
// responses in instance order.
func (f *Frontend) gather(ctx context.Context, path string) []fetch {
	ctx, cancel := context.WithTimeout(ctx, f.cfg.Timeout)
	defer cancel()
	out := make([]fetch, len(f.cfg.Instances))
	var wg sync.WaitGroup
	for i, in := range f.cfg.Instances {
		wg.Add(1)
		go func(i int, in string) {
			defer wg.Done()
			out[i] = fetch{instance: in}
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(in, "/")+path, nil)
			if err != nil {
				out[i].err = err
				return
			}
			resp, err := f.client.Do(req)
			if err != nil {
				out[i].err = err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(io.LimitReader(resp.Body, MaxPeerBody+1))
			if err != nil {
				out[i].err = err
				return
			}
			if len(body) > MaxPeerBody {
				out[i].err = fmt.Errorf("%s%s: body exceeds %d bytes", in, path, MaxPeerBody)
				return
			}
			// /healthz deliberately answers 503 while draining with a valid
			// body; anything else non-2xx is a failure.
			if resp.StatusCode >= 300 && path != "/healthz" {
				out[i].err = fmt.Errorf("%s%s: %s", in, path, resp.Status)
				return
			}
			out[i].body = body
		}(i, in)
	}
	wg.Wait()
	for _, g := range out {
		if g.err != nil {
			f.gErrs.Add(1)
		}
	}
	return out
}

// snapshots gathers and decodes every reachable instance's raw flow-table
// state, rejecting any whose snapshot schema version differs from this
// binary's (queryapi.Snapshot.Check) — merging a stale instance would
// silently drop its sketch tier rather than fail. It returns the accepted
// per-instance snapshots, how many instances answered, and the first error
// (for the all-down case).
func (f *Frontend) snapshots(ctx context.Context) (snaps []queryapi.Snapshot, ok int, firstErr error) {
	for _, g := range f.gather(ctx, "/snapshot") {
		if g.err == nil {
			var s queryapi.Snapshot
			if err := json.Unmarshal(g.body, &s); err != nil {
				g.err = fmt.Errorf("%s/snapshot: %w", g.instance, err)
				f.gErrs.Add(1)
			} else if err := s.Check(); err != nil {
				g.err = fmt.Errorf("%s/snapshot: %w", g.instance, err)
				f.gErrs.Add(1)
			} else {
				snaps = append(snaps, s)
				ok++
				continue
			}
		}
		if firstErr == nil {
			firstErr = g.err
		}
	}
	return snaps, ok, firstErr
}

// merged is the exact fleet-wide flow table: instance snapshots decoded to
// raw aggregates and merged. Flow-disjoint partitioning makes the result
// bit-identical to a single collector over the whole stream.
func merged(snaps []queryapi.Snapshot) []collector.FlowAgg {
	parts := make([][]collector.FlowAgg, len(snaps))
	for i, s := range snaps {
		parts[i] = s.Aggs()
	}
	return collector.Merge(parts...)
}

// Handler returns the fleet query API: the same five endpoints a single
// rlird serves, answered for the whole fleet.
func (f *Frontend) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/flows", f.handleFlows)
	mux.HandleFunc("/routers", f.handleRouters)
	mux.HandleFunc("/rollup", f.handleRollup)
	mux.HandleFunc("/comparison", f.handleComparison)
	mux.HandleFunc("/healthz", f.handleHealthz)
	mux.HandleFunc("/metrics", f.handleMetrics)
	return mux
}

func (f *Frontend) handleFlows(w http.ResponseWriter, r *http.Request) {
	f.queries.Add(1)
	snaps, ok, firstErr := f.snapshots(r.Context())
	if ok == 0 {
		http.Error(w, fmt.Sprintf("no instance reachable: %v", firstErr), http.StatusBadGateway)
		return
	}
	aggs := merged(snaps)
	limit := len(aggs)
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		if n < limit {
			limit = n
		}
	}
	rows := make([]queryapi.FlowJSON, 0, limit)
	for i := 0; i < limit; i++ {
		rows = append(rows, queryapi.FlowRow(&aggs[i]))
	}
	queryapi.WriteJSON(w, http.StatusOK, rows)
}

func (f *Frontend) handleComparison(w http.ResponseWriter, r *http.Request) {
	f.queries.Add(1)
	snaps, ok, firstErr := f.snapshots(r.Context())
	if ok == 0 {
		http.Error(w, fmt.Sprintf("no instance reachable: %v", firstErr), http.StatusBadGateway)
		return
	}
	cmp := measure.CompareFlowAggs("rli", merged(snaps))
	queryapi.WriteJSON(w, http.StatusOK, []queryapi.ComparisonJSON{queryapi.ComparisonRow(cmp)})
}

// handleRollup gathers each instance's /rollup and returns the per-instance
// views annotated with their instance URL, like /routers. The rollup tiers
// are NOT cross-instance merged: which flows a bounded instance evicted
// depends on its own arrival order and caps, so per-instance rollups are an
// operational view, not part of the exact-merge surface (/flows,
// /comparison — those merge live per-flow state, which stays exact).
func (f *Frontend) handleRollup(w http.ResponseWriter, r *http.Request) {
	f.queries.Add(1)
	var rows []queryapi.RollupJSON
	anyOK := false
	var firstErr error
	for _, g := range f.gather(r.Context(), "/rollup") {
		if g.err != nil {
			if firstErr == nil {
				firstErr = g.err
			}
			continue
		}
		var part queryapi.RollupJSON
		if err := json.Unmarshal(g.body, &part); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s/rollup: %w", g.instance, err)
			}
			f.gErrs.Add(1)
			continue
		}
		anyOK = true
		part.Instance = g.instance
		rows = append(rows, part)
	}
	if !anyOK {
		http.Error(w, fmt.Sprintf("no instance reachable: %v", firstErr), http.StatusBadGateway)
		return
	}
	queryapi.WriteJSON(w, http.StatusOK, rows)
}

func (f *Frontend) handleRouters(w http.ResponseWriter, r *http.Request) {
	f.queries.Add(1)
	var rows []queryapi.RouterJSON
	anyOK := false
	var firstErr error
	for _, g := range f.gather(r.Context(), "/routers") {
		if g.err != nil {
			if firstErr == nil {
				firstErr = g.err
			}
			continue
		}
		var part []queryapi.RouterJSON
		if err := json.Unmarshal(g.body, &part); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s/routers: %w", g.instance, err)
			}
			f.gErrs.Add(1)
			continue
		}
		anyOK = true
		for i := range part {
			part[i].Instance = g.instance
		}
		rows = append(rows, part...)
	}
	if !anyOK {
		http.Error(w, fmt.Sprintf("no instance reachable: %v", firstErr), http.StatusBadGateway)
		return
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Router != rows[j].Router {
			return rows[i].Router < rows[j].Router
		}
		return rows[i].Instance < rows[j].Instance
	})
	if rows == nil {
		rows = []queryapi.RouterJSON{}
	}
	queryapi.WriteJSON(w, http.StatusOK, rows)
}

// HealthJSON is the fleet /healthz response: the aggregate plus one row per
// instance. Distinct from a single instance's queryapi.HealthJSON — a fleet
// front-end's own health is "how much of the fleet answers".
type HealthJSON struct {
	// Status is "ok" (every instance answered ok), "degraded" (some did),
	// or "down" (none did — served with a 503).
	Status      string  `json:"status"`
	Instances   int     `json:"instances"`
	InstancesOK int     `json:"instances_ok"`
	UptimeS     float64 `json:"uptime_s"`
	// Flows / Samples / Records are sums over answering instances. With
	// flow-disjoint partitioning the flow sum is exact (no flow is counted
	// twice).
	Flows   int    `json:"flows"`
	Samples uint64 `json:"samples"`
	Records uint64 `json:"records"`
	// PerInstance reports each instance in configured order.
	PerInstance []InstanceHealth `json:"per_instance"`
}

// InstanceHealth is one instance's row in the fleet health report.
type InstanceHealth struct {
	Instance string `json:"instance"`
	// Status is the instance's self-reported status, or "unreachable".
	Status  string `json:"status"`
	Error   string `json:"error,omitempty"`
	Flows   int    `json:"flows,omitempty"`
	Samples uint64 `json:"samples,omitempty"`
	Records uint64 `json:"records,omitempty"`
}

// fleetHealth gathers instance /healthz and folds the aggregate view; it
// backs both /healthz and the gauges in /metrics.
func (f *Frontend) fleetHealth(ctx context.Context) HealthJSON {
	h := HealthJSON{
		Instances: len(f.cfg.Instances),
		UptimeS:   time.Since(f.start).Seconds(),
	}
	for _, g := range f.gather(ctx, "/healthz") {
		row := InstanceHealth{Instance: g.instance, Status: "unreachable"}
		if g.err != nil {
			row.Error = g.err.Error()
		} else {
			var ih queryapi.HealthJSON
			if err := json.Unmarshal(g.body, &ih); err != nil {
				row.Error = err.Error()
				f.gErrs.Add(1)
			} else {
				row.Status = ih.Status
				row.Flows, row.Samples, row.Records = ih.Flows, ih.Samples, ih.Records
				h.InstancesOK++
				h.Flows += ih.Flows
				h.Samples += ih.Samples
				h.Records += ih.Records
			}
		}
		h.PerInstance = append(h.PerInstance, row)
	}
	switch {
	case h.InstancesOK == h.Instances:
		h.Status = "ok"
	case h.InstancesOK > 0:
		h.Status = "degraded"
	default:
		h.Status = "down"
	}
	return h
}

func (f *Frontend) handleHealthz(w http.ResponseWriter, r *http.Request) {
	f.queries.Add(1)
	h := f.fleetHealth(r.Context())
	code := http.StatusOK
	if h.Status == "down" {
		code = http.StatusServiceUnavailable
	}
	queryapi.WriteJSON(w, code, h)
}

// handleMetrics serves the front-end's own Prometheus text: fleet size and
// reachability, scatter-gather accounting, and the aggregate ingest gauges.
func (f *Frontend) handleMetrics(w http.ResponseWriter, r *http.Request) {
	f.queries.Add(1)
	h := f.fleetHealth(r.Context())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	p("# HELP rlirfleet_instances Configured fleet instances.\n# TYPE rlirfleet_instances gauge\n")
	p("rlirfleet_instances %d\n", h.Instances)
	p("# HELP rlirfleet_instances_up Instances that answered the last health fan-out.\n# TYPE rlirfleet_instances_up gauge\n")
	p("rlirfleet_instances_up %d\n", h.InstancesOK)
	p("# HELP rlirfleet_queries_total Front-end queries served.\n# TYPE rlirfleet_queries_total counter\n")
	p("rlirfleet_queries_total %d\n", f.queries.Load())
	p("# HELP rlirfleet_gather_errors_total Instance fetches that failed or decoded badly.\n# TYPE rlirfleet_gather_errors_total counter\n")
	p("rlirfleet_gather_errors_total %d\n", f.gErrs.Load())
	p("# HELP rlirfleet_flows Distinct flows across answering instances (exact under flow-disjoint partitioning).\n# TYPE rlirfleet_flows gauge\n")
	p("rlirfleet_flows %d\n", h.Flows)
	p("# HELP rlirfleet_samples_total Samples ingested across answering instances.\n# TYPE rlirfleet_samples_total counter\n")
	p("rlirfleet_samples_total %d\n", h.Samples)
	p("# HELP rlirfleet_records_total NetFlow records ingested across answering instances.\n# TYPE rlirfleet_records_total counter\n")
	p("rlirfleet_records_total %d\n", h.Records)
	p("# HELP rlirfleet_uptime_seconds Time since the front-end started.\n# TYPE rlirfleet_uptime_seconds gauge\n")
	p("rlirfleet_uptime_seconds %g\n", time.Since(f.start).Seconds())
	for i, in := range f.cfg.Instances {
		up := 0
		if i < len(h.PerInstance) && h.PerInstance[i].Status != "unreachable" {
			up = 1
		}
		if i == 0 {
			p("# HELP rlirfleet_instance_up Per-instance reachability in the last health fan-out.\n# TYPE rlirfleet_instance_up gauge\n")
		}
		p("rlirfleet_instance_up{instance=%q} %d\n", in, up)
	}
}
