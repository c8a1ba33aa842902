// Package queryapi holds the JSON row types and renderers of the measurement
// query API — the /flows, /routers, /comparison and /healthz shapes — plus
// the raw-state snapshot codec the fleet tier merges through.
//
// The package exists so that a single rlird instance (internal/service) and
// the scatter-gather front-end (internal/fleet, cmd/rlirfleet) render rows
// through the same code: a fleet-of-N answer is byte-identical to the
// single-node answer not by convention but because both call these
// functions. The snapshot codec is the exact half: FlowState carries the
// full internal accumulator state (stats.WelfordState, stats.SketchState)
// rather than derived summaries, and Go's JSON float
// encoding is shortest round-trip, so instance state crosses the HTTP
// boundary bit-identically. Snapshots are schema-versioned
// (SnapshotVersion); merging peers must Check before trusting one.
package queryapi

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/stats"
)

// FlowJSON is one /flows row: a collector flow aggregate flattened for the
// wire. Durations are nanosecond integers, like the spec JSON front-end.
type FlowJSON struct {
	Src     string `json:"src"`
	Dst     string `json:"dst"`
	SrcPort uint16 `json:"src_port"`
	DstPort uint16 `json:"dst_port"`
	Proto   uint8  `json:"proto"`
	// Samples counts the per-packet estimates behind the aggregate.
	Samples int64 `json:"samples"`
	// EstMeanNs / EstStdNs / EstP50Ns / EstP99Ns summarize the estimated
	// delay distribution. The quantiles come from the flow's bounded-memory
	// sketch, within stats.SketchRelErrBound of the exact sample quantiles.
	EstMeanNs float64 `json:"est_mean_ns"`
	EstStdNs  float64 `json:"est_std_ns"`
	EstP50Ns  int64   `json:"est_p50_ns"`
	EstP99Ns  int64   `json:"est_p99_ns"`
	// TrueMeanNs is the in-band ground-truth mean (zero when the stream
	// carries no truth, as a real deployment's would not).
	TrueMeanNs float64 `json:"true_mean_ns"`
	// Packets / Bytes / FirstNs / LastNs mirror NetFlow record fields (zero
	// when no exporter mentioned the flow).
	Packets uint64 `json:"packets"`
	Bytes   uint64 `json:"bytes"`
	FirstNs int64  `json:"first_ns,omitempty"`
	LastNs  int64  `json:"last_ns,omitempty"`
}

// FlowRow renders one flow aggregate as its /flows row.
func FlowRow(a *collector.FlowAgg) FlowJSON {
	return FlowJSON{
		Src:        a.Key.Src.String(),
		Dst:        a.Key.Dst.String(),
		SrcPort:    a.Key.SrcPort,
		DstPort:    a.Key.DstPort,
		Proto:      uint8(a.Key.Proto),
		Samples:    a.Est.N(),
		EstMeanNs:  a.Est.Mean(),
		EstStdNs:   a.Est.Std(),
		EstP50Ns:   int64(a.Sketch.Quantile(0.5)),
		EstP99Ns:   int64(a.Sketch.Quantile(0.99)),
		TrueMeanNs: a.True.Mean(),
		Packets:    a.Packets,
		Bytes:      a.Bytes,
		FirstNs:    int64(a.First),
		LastNs:     int64(a.Last),
	}
}

// RouterJSON is one /routers row: a connected exporter's aggregate view.
type RouterJSON struct {
	Router  string `json:"router"`
	Frames  uint64 `json:"frames"`
	Samples uint64 `json:"samples"`
	Records uint64 `json:"records"`
	Bytes   uint64 `json:"bytes"`
	// EstMeanNs / EstP50Ns / EstP99Ns summarize the router's streamed
	// estimates; TrueMeanNs its in-band truth.
	EstMeanNs  float64 `json:"est_mean_ns"`
	EstP50Ns   int64   `json:"est_p50_ns"`
	EstP99Ns   int64   `json:"est_p99_ns"`
	TrueMeanNs float64 `json:"true_mean_ns"`
	// Reliable is true when the exporter connected over the swp transport;
	// the remaining fields are its receiver-side loss accounting: segments
	// received, duplicates dropped (retransmissions whose original
	// arrived), segments reorder-buffered, and gap episodes.
	Reliable            bool   `json:"reliable,omitempty"`
	TransportSegments   uint64 `json:"transport_segments,omitempty"`
	TransportDuplicates uint64 `json:"transport_duplicates,omitempty"`
	TransportOutOfOrder uint64 `json:"transport_out_of_order,omitempty"`
	TransportGaps       uint64 `json:"transport_gaps,omitempty"`
	// Instance names which fleet instance reported the row. A single rlird
	// omits it; the fleet front-end annotates gathered rows with it.
	Instance string `json:"instance,omitempty"`
}

// ComparisonJSON is the /comparison response: measure.CompareFlowAggs with
// NaN (undefined) errors encoded as JSON nulls.
type ComparisonJSON struct {
	Estimator    string   `json:"estimator"`
	Flows        int      `json:"flows"`
	Samples      int64    `json:"samples"`
	MedianRelErr *float64 `json:"median_rel_err"`
	P99RelErr    *float64 `json:"p99_rel_err"`
	AggMeanNs    int64    `json:"agg_mean_ns"`
	AggSamples   int64    `json:"agg_samples"`
	AggRelErr    *float64 `json:"agg_rel_err"`
}

// ComparisonRow renders one streaming comparison as its /comparison row.
func ComparisonRow(c measure.Comparison) ComparisonJSON {
	opt := func(v float64) *float64 {
		if math.IsNaN(v) {
			return nil
		}
		return &v
	}
	return ComparisonJSON{
		Estimator:    c.Estimator,
		Flows:        c.Flows,
		Samples:      c.Samples,
		MedianRelErr: opt(c.MedianRelErr),
		P99RelErr:    opt(c.P99RelErr),
		AggMeanNs:    int64(c.AggMean),
		AggSamples:   c.AggSamples,
		AggRelErr:    opt(c.AggRelErr),
	}
}

// HealthJSON is a single instance's /healthz response.
type HealthJSON struct {
	Status        string  `json:"status"`
	UptimeS       float64 `json:"uptime_s"`
	Flows         int     `json:"flows"`
	Samples       uint64  `json:"samples"`
	Records       uint64  `json:"records"`
	Frames        uint64  `json:"frames"`
	Conns         int     `json:"connections_active"`
	ConnsTotal    uint64  `json:"connections_total"`
	DecodeErrors  uint64  `json:"decode_errors"`
	SampleRate1W  float64 `json:"ingest_samples_per_s"`
	RecordRate1W  float64 `json:"ingest_records_per_s"`
	WindowSeconds float64 `json:"rate_window_s"`
	// FlowsEvicted / FlowsExpired / FlowClasses describe the bounded flow
	// table: lifetime cap evictions, lifetime window expiries, and the
	// current class-rollup tier size (all zero while unbounded and idle).
	FlowsEvicted uint64 `json:"flows_evicted"`
	FlowsExpired uint64 `json:"flows_expired"`
	FlowClasses  int    `json:"flow_classes"`
	// DecodeErrorKinds breaks DecodeErrors down by corruption kind,
	// summed across exporters (omitted while zero).
	DecodeErrorKinds map[string]uint64 `json:"decode_error_kinds,omitempty"`
	// ReliableConns counts connections that spoke the swp framing; the
	// Transport* fields aggregate their receiver-side loss accounting.
	ReliableConns       uint64 `json:"reliable_connections_total"`
	TransportSegments   uint64 `json:"transport_segments"`
	TransportDuplicates uint64 `json:"transport_duplicates"`
	TransportOutOfOrder uint64 `json:"transport_out_of_order"`
	TransportGaps       uint64 `json:"transport_gaps"`
}

// WriteJSON writes v as indented JSON with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// FlowState is one flow aggregate's complete internal state, the /snapshot
// wire row. Unlike FlowJSON it loses nothing: the Welford and sketch
// accumulators travel as their exact field values, and the 5-tuple travels
// numerically, so DecodeSnapshot rebuilds collector.FlowAgg values
// bit-identical to the instance's own.
type FlowState struct {
	Src     uint32 `json:"src"`
	Dst     uint32 `json:"dst"`
	SrcPort uint16 `json:"src_port"`
	DstPort uint16 `json:"dst_port"`
	Proto   uint8  `json:"proto"`

	Est    stats.WelfordState `json:"est"`
	True   stats.WelfordState `json:"true"`
	Sketch stats.SketchState  `json:"sketch"`

	Packets uint64 `json:"packets,omitempty"`
	Bytes   uint64 `json:"bytes,omitempty"`
	FirstNs int64  `json:"first_ns,omitempty"`
	LastNs  int64  `json:"last_ns,omitempty"`
}

// SnapshotVersion is the current /snapshot schema version. Version 2 added
// the per-flow quantile sketch state; a version-1 instance's snapshot lacks
// it, and merging such a snapshot would silently produce empty sketch tiers
// — so Check rejects any version mismatch outright instead. Version 3
// dropped the per-flow histogram, leaving the sketch as each flow's one
// distribution aggregate.
const SnapshotVersion = 3

// Snapshot is the /snapshot response: the full flow table as raw state plus
// the instance's ingest totals, tagged with the schema version that produced
// it.
type Snapshot struct {
	Version int         `json:"version"`
	Samples uint64      `json:"samples"`
	Records uint64      `json:"records"`
	Flows   []FlowState `json:"flows"`
}

// Check validates the snapshot's schema version against this binary's and
// every flow's sketch state against its invariants. A version mismatch
// (including the implicit version 0 of a pre-versioning instance) is an
// error naming both versions, so a mixed-version fleet fails loudly at
// gather time rather than merging lossily; an inconsistent sketch names the
// flow, so one bad peer is degraded instead of skewing the merge.
func (s Snapshot) Check() error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("queryapi: snapshot version %d from peer, this binary speaks version %d (mixed-version fleet?)", s.Version, SnapshotVersion)
	}
	for i := range s.Flows {
		if err := s.Flows[i].Sketch.Validate(); err != nil {
			return fmt.Errorf("queryapi: snapshot flow %d: %w", i, err)
		}
	}
	return nil
}

// SnapshotOf packs a collector snapshot (and its ingest totals) for the
// wire.
func SnapshotOf(aggs []collector.FlowAgg, samples, records uint64) Snapshot {
	s := Snapshot{Version: SnapshotVersion, Samples: samples, Records: records, Flows: make([]FlowState, len(aggs))}
	for i := range aggs {
		a := &aggs[i]
		s.Flows[i] = FlowState{
			Src:     uint32(a.Key.Src),
			Dst:     uint32(a.Key.Dst),
			SrcPort: a.Key.SrcPort,
			DstPort: a.Key.DstPort,
			Proto:   uint8(a.Key.Proto),
			Est:     a.Est.State(),
			True:    a.True.State(),
			Sketch:  a.Sketch.State(),
			Packets: a.Packets,
			Bytes:   a.Bytes,
			FirstNs: int64(a.First),
			LastNs:  int64(a.Last),
		}
	}
	return s
}

// Aggs unpacks the snapshot back into collector flow aggregates, in wire
// order (instances send them sorted by flow key).
func (s Snapshot) Aggs() []collector.FlowAgg {
	out := make([]collector.FlowAgg, len(s.Flows))
	for i, f := range s.Flows {
		out[i] = collector.FlowAgg{
			Key: packet.FlowKey{
				Src:     packet.Addr(f.Src),
				Dst:     packet.Addr(f.Dst),
				SrcPort: f.SrcPort,
				DstPort: f.DstPort,
				Proto:   packet.Proto(f.Proto),
			},
			Est:     stats.WelfordFromState(f.Est),
			True:    stats.WelfordFromState(f.True),
			Sketch:  stats.SketchFromState(f.Sketch),
			Packets: f.Packets,
			Bytes:   f.Bytes,
			First:   simtime.Time(f.FirstNs),
			Last:    simtime.Time(f.LastNs),
		}
	}
	return out
}

// RollupRowJSON is one rollup-tier aggregate flattened for the wire: a
// class row carries its masked 5-tuple (ports always zero), the router row
// omits endpoints entirely.
type RollupRowJSON struct {
	Src     string `json:"src,omitempty"`
	Dst     string `json:"dst,omitempty"`
	Proto   uint8  `json:"proto,omitempty"`
	Samples int64  `json:"samples"`
	// EstMeanNs / EstP50Ns / EstP99Ns summarize the tier's estimated delay
	// distribution; quantiles come from the tier's merged sketch.
	EstMeanNs float64 `json:"est_mean_ns"`
	EstP50Ns  int64   `json:"est_p50_ns"`
	EstP99Ns  int64   `json:"est_p99_ns"`
	Packets   uint64  `json:"packets,omitempty"`
	Bytes     uint64  `json:"bytes,omitempty"`
}

// RollupJSON is the /rollup response: the aggregation tiers below the live
// flow table plus the eviction accounting that filled them. A fleet
// front-end annotates each instance's rollup with Instance.
type RollupJSON struct {
	FlowsTracked int             `json:"flows_tracked"`
	FlowsEvicted uint64          `json:"flows_evicted"`
	FlowsExpired uint64          `json:"flows_expired"`
	Classes      []RollupRowJSON `json:"classes"`
	Router       RollupRowJSON   `json:"router"`
	Instance     string          `json:"instance,omitempty"`
}

// rollupRow renders one rollup-tier aggregate. withKey is false for the
// router row, whose key is the zero FlowKey by construction.
func rollupRow(a *collector.FlowAgg, withKey bool) RollupRowJSON {
	r := RollupRowJSON{
		Samples:   a.Est.N(),
		EstMeanNs: a.Est.Mean(),
		EstP50Ns:  int64(a.Sketch.Quantile(0.5)),
		EstP99Ns:  int64(a.Sketch.Quantile(0.99)),
		Packets:   a.Packets,
		Bytes:     a.Bytes,
	}
	if withKey {
		r.Src = a.Key.Src.String()
		r.Dst = a.Key.Dst.String()
		r.Proto = uint8(a.Key.Proto)
	}
	return r
}

// RollupRows renders a collector rollup as its /rollup response.
func RollupRows(r collector.Rollup) RollupJSON {
	out := RollupJSON{
		FlowsTracked: r.Stats.Flows,
		FlowsEvicted: r.Stats.Evicted,
		FlowsExpired: r.Stats.Expired,
		Classes:      make([]RollupRowJSON, len(r.Classes)),
		Router:       rollupRow(&r.Root, false),
	}
	for i := range r.Classes {
		out.Classes[i] = rollupRow(&r.Classes[i], true)
	}
	return out
}
