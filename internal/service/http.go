package service

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/queryapi"
)

// The JSON row types live in internal/queryapi so the fleet front-end
// (cmd/rlirfleet) renders merged answers through exactly the same code
// paths a single rlird uses. The aliases keep this package's — and the
// root package's — historical names working.
type (
	// FlowJSON is one /flows row.
	FlowJSON = queryapi.FlowJSON
	// RouterJSON is one /routers row.
	RouterJSON = queryapi.RouterJSON
	// ComparisonJSON is the /comparison row shape.
	ComparisonJSON = queryapi.ComparisonJSON
	// HealthJSON is the /healthz response.
	HealthJSON = queryapi.HealthJSON
	// RollupJSON is the /rollup response.
	RollupJSON = queryapi.RollupJSON
)

func flowJSON(a *collector.FlowAgg) FlowJSON { return queryapi.FlowRow(a) }

func comparisonJSON(c measure.Comparison) ComparisonJSON { return queryapi.ComparisonRow(c) }

// Handler returns the query API. It is safe to serve before, during and
// after Shutdown — post-shutdown it answers from the collector's final
// state (healthz reports "draining"/"stopped").
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/flows", s.handleFlows)
	mux.HandleFunc("/routers", s.handleRouters)
	mux.HandleFunc("/rollup", s.handleRollup)
	mux.HandleFunc("/comparison", s.handleComparison)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	queryapi.WriteJSON(w, status, v)
}

// handleFlows serves the per-flow table, sorted by flow key. ?limit=N caps
// the row count (the table can hold millions of flows).
func (s *Server) handleFlows(w http.ResponseWriter, r *http.Request) {
	snap := s.coll.Snapshot()
	limit := len(snap)
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
	rows := make([]FlowJSON, 0, limit)
	for i := 0; i < limit; i++ {
		rows = append(rows, flowJSON(&snap[i]))
	}
	writeJSON(w, http.StatusOK, rows)
}

func (s *Server) handleRouters(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	names := make([]string, 0, len(s.routers))
	for n := range s.routers {
		names = append(names, n)
	}
	aggs := make([]*routerAgg, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		aggs = append(aggs, s.routers[n])
	}
	s.mu.Unlock()

	rows := make([]RouterJSON, 0, len(names))
	for i, agg := range aggs {
		agg.mu.Lock()
		rows = append(rows, RouterJSON{
			Router:              names[i],
			Frames:              agg.frames,
			Samples:             agg.samples,
			Records:             agg.records,
			Bytes:               agg.bytes,
			EstMeanNs:           agg.est.Mean(),
			EstP50Ns:            int64(agg.hist.Quantile(0.5)),
			EstP99Ns:            int64(agg.hist.Quantile(0.99)),
			TrueMeanNs:          agg.truth.Mean(),
			Reliable:            agg.reliable,
			TransportSegments:   agg.tSegments,
			TransportDuplicates: agg.tDuplicates,
			TransportOutOfOrder: agg.tOutOfOrder,
			TransportGaps:       agg.tGaps,
		})
		agg.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, rows)
}

// handleRollup serves the aggregation tiers below the live flow table —
// the class and router aggregates that evicted/expired flows folded into —
// plus the eviction accounting. With no eviction configured the tiers are
// empty and only the accounting fields are meaningful.
func (s *Server) handleRollup(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, queryapi.RollupRows(s.coll.RollupSnapshot()))
}

func (s *Server) handleComparison(w http.ResponseWriter, r *http.Request) {
	cmp := measure.CompareFlowAggs("rli", s.coll.Snapshot())
	writeJSON(w, http.StatusOK, []ComparisonJSON{comparisonJSON(cmp)})
}

// handleSnapshot serves the raw flow-table state (full accumulator
// internals, not derived summaries) — the endpoint the fleet front-end
// gathers and merges exactly. See queryapi.FlowState.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	snap := s.coll.Snapshot()
	writeJSON(w, http.StatusOK,
		queryapi.SnapshotOf(snap, s.coll.SamplesIngested(), s.coll.RecordsIngested()))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.closed.Load() {
		status, code = "stopped", http.StatusServiceUnavailable
	} else if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	sps, rps := s.window.rates()
	var kinds map[string]uint64
	if by := s.decodeErrKinds(); len(by) > 0 {
		kinds = make(map[string]uint64, len(by))
		for k, v := range by {
			kinds[k.kind] += v
		}
	}
	ts := s.coll.Stats()
	writeJSON(w, code, HealthJSON{
		Status:              status,
		UptimeS:             time.Since(s.start).Seconds(),
		Flows:               ts.Flows,
		Samples:             s.coll.SamplesIngested(),
		Records:             s.coll.RecordsIngested(),
		Frames:              s.frames.Load(),
		Conns:               s.activeConns(),
		ConnsTotal:          s.connsTotal.Load(),
		DecodeErrors:        s.decodeErrs.Load(),
		SampleRate1W:        sps,
		RecordRate1W:        rps,
		WindowSeconds:       s.cfg.Window.Seconds(),
		DecodeErrorKinds:    kinds,
		ReliableConns:       s.relConnsTotal.Load(),
		TransportSegments:   s.tSegments.Load(),
		TransportDuplicates: s.tDuplicates.Load(),
		TransportOutOfOrder: s.tOutOfOrder.Load(),
		TransportGaps:       s.tGaps.Load(),
		FlowsEvicted:        ts.Evicted,
		FlowsExpired:        ts.Expired,
		FlowClasses:         ts.Classes,
	})
}

// handleMetrics serves the Prometheus text exposition format: counters for
// the ingest totals, gauges for the live state and the rolling-window
// rates.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sps, rps := s.window.rates()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	p("# HELP rlird_samples_total Latency samples ingested.\n# TYPE rlird_samples_total counter\n")
	p("rlird_samples_total %d\n", s.coll.SamplesIngested())
	p("# HELP rlird_records_total NetFlow records ingested.\n# TYPE rlird_records_total counter\n")
	p("rlird_records_total %d\n", s.coll.RecordsIngested())
	p("# HELP rlird_frames_total Wire frames decoded.\n# TYPE rlird_frames_total counter\n")
	p("rlird_frames_total %d\n", s.frames.Load())
	p("# HELP rlird_decode_errors_total Connections ended by a codec error.\n# TYPE rlird_decode_errors_total counter\n")
	p("rlird_decode_errors_total %d\n", s.decodeErrs.Load())
	if by := s.decodeErrKinds(); len(by) > 0 {
		keys := make([]decodeErrKey, 0, len(by))
		for k := range by {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].router != keys[j].router {
				return keys[i].router < keys[j].router
			}
			return keys[i].kind < keys[j].kind
		})
		p("# HELP rlird_decode_error_kinds_total Decode errors by exporter and corruption kind.\n# TYPE rlird_decode_error_kinds_total counter\n")
		for _, k := range keys {
			p("rlird_decode_error_kinds_total{router=%q,kind=%q} %d\n", k.router, k.kind, by[k])
		}
	}
	p("# HELP rlird_connections_total Exporter connections accepted.\n# TYPE rlird_connections_total counter\n")
	p("rlird_connections_total %d\n", s.connsTotal.Load())
	p("# HELP rlird_connections_active Exporter connections currently streaming.\n# TYPE rlird_connections_active gauge\n")
	p("rlird_connections_active %d\n", s.activeConns())
	p("# HELP rlird_reliable_connections_total Connections that spoke the swp reliable framing.\n# TYPE rlird_reliable_connections_total counter\n")
	p("rlird_reliable_connections_total %d\n", s.relConnsTotal.Load())
	p("# HELP rlird_transport_segments_total Data segments received over reliable connections.\n# TYPE rlird_transport_segments_total counter\n")
	p("rlird_transport_segments_total %d\n", s.tSegments.Load())
	p("# HELP rlird_transport_duplicates_total Duplicate segments dropped (retransmissions whose original arrived).\n# TYPE rlird_transport_duplicates_total counter\n")
	p("rlird_transport_duplicates_total %d\n", s.tDuplicates.Load())
	p("# HELP rlird_transport_out_of_order_total Segments reorder-buffered before in-order delivery.\n# TYPE rlird_transport_out_of_order_total counter\n")
	p("rlird_transport_out_of_order_total %d\n", s.tOutOfOrder.Load())
	p("# HELP rlird_transport_gaps_total Sequence-gap episodes observed by reliable receivers.\n# TYPE rlird_transport_gaps_total counter\n")
	p("rlird_transport_gaps_total %d\n", s.tGaps.Load())
	s.mu.Lock()
	names := make([]string, 0, len(s.routers))
	for n := range s.routers {
		names = append(names, n)
	}
	sort.Strings(names)
	perRouter := make([]struct {
		name             string
		segs, dups, gaps uint64
	}, 0, len(names))
	for _, n := range names {
		agg := s.routers[n]
		agg.mu.Lock()
		if agg.reliable {
			perRouter = append(perRouter, struct {
				name             string
				segs, dups, gaps uint64
			}{n, agg.tSegments, agg.tDuplicates, agg.tGaps})
		}
		agg.mu.Unlock()
	}
	s.mu.Unlock()
	if len(perRouter) > 0 {
		p("# HELP rlird_router_transport_segments_total Data segments received, by exporter.\n# TYPE rlird_router_transport_segments_total counter\n")
		for _, r := range perRouter {
			p("rlird_router_transport_segments_total{router=%q} %d\n", r.name, r.segs)
		}
		p("# HELP rlird_router_transport_duplicates_total Duplicate segments dropped, by exporter.\n# TYPE rlird_router_transport_duplicates_total counter\n")
		for _, r := range perRouter {
			p("rlird_router_transport_duplicates_total{router=%q} %d\n", r.name, r.dups)
		}
		p("# HELP rlird_router_transport_gaps_total Sequence-gap episodes, by exporter.\n# TYPE rlird_router_transport_gaps_total counter\n")
		for _, r := range perRouter {
			p("rlird_router_transport_gaps_total{router=%q} %d\n", r.name, r.gaps)
		}
	}
	ts := s.coll.Stats()
	p("# HELP rlird_flows_tracked Flows currently tracked individually (excludes rollup tiers).\n# TYPE rlird_flows_tracked gauge\n")
	p("rlird_flows_tracked %d\n", ts.Flows)
	p("# HELP rlird_flows_evicted_total Flows folded into rollup tiers by the max-flows cap.\n# TYPE rlird_flows_evicted_total counter\n")
	p("rlird_flows_evicted_total %d\n", ts.Evicted)
	p("# HELP rlird_flows_expired_total Flows folded into rollup tiers by idle-window expiry.\n# TYPE rlird_flows_expired_total counter\n")
	p("rlird_flows_expired_total %d\n", ts.Expired)
	p("# HELP rlird_flow_classes Class-tier rollup aggregates currently held.\n# TYPE rlird_flow_classes gauge\n")
	p("rlird_flow_classes %d\n", ts.Classes)
	p("# HELP rlird_shards Collector shard goroutines.\n# TYPE rlird_shards gauge\n")
	p("rlird_shards %d\n", s.coll.Shards())
	p("# HELP rlird_ingest_samples_per_second Rolling-window sample ingest rate.\n# TYPE rlird_ingest_samples_per_second gauge\n")
	p("rlird_ingest_samples_per_second %g\n", sps)
	p("# HELP rlird_ingest_records_per_second Rolling-window record ingest rate.\n# TYPE rlird_ingest_records_per_second gauge\n")
	p("rlird_ingest_records_per_second %g\n", rps)
	p("# HELP rlird_uptime_seconds Time since the service started.\n# TYPE rlird_uptime_seconds gauge\n")
	p("rlird_uptime_seconds %g\n", time.Since(s.start).Seconds())
}
