package queryapi

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/netflow"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// buildSnapshot runs a real collector over a random stream and returns its
// final sorted flow table.
func buildSnapshot(t *testing.T, seed int64) []collector.FlowAgg {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	keys := make([]packet.FlowKey, 1+rng.Intn(30))
	for i := range keys {
		keys[i] = packet.FlowKey{
			Src:     packet.Addr(rng.Uint32()),
			Dst:     packet.Addr(rng.Uint32()),
			SrcPort: uint16(rng.Intn(1 << 16)),
			DstPort: uint16(rng.Intn(1 << 16)),
			Proto:   packet.ProtoTCP,
		}
	}
	coll := collector.New(collector.Config{Shards: 2})
	for b := 0; b < 10; b++ {
		smps := make([]collector.Sample, 1+rng.Intn(80))
		for i := range smps {
			smps[i] = collector.Sample{
				Key:  keys[rng.Intn(len(keys))],
				Est:  time.Duration(rng.Int63n(int64(time.Second))),
				True: time.Duration(rng.Int63n(int64(time.Second))),
			}
		}
		coll.Ingest(smps)
		if rng.Intn(2) == 0 {
			coll.IngestRecords([]netflow.Record{{
				Key:     keys[rng.Intn(len(keys))],
				Packets: uint64(1 + rng.Intn(50)),
				Bytes:   uint64(64 * (1 + rng.Intn(100))),
				First:   simtime.Time(rng.Int63n(int64(time.Second))),
				Last:    simtime.Time(rng.Int63n(int64(time.Second))),
			}})
		}
	}
	coll.Close()
	return coll.Snapshot()
}

// TestSnapshotRoundTripExact is the fleet wire contract: a collector
// snapshot, packed, marshalled to JSON, unmarshalled and unpacked, is
// bit-identical to the original — including the unexported Welford and
// histogram internals, via their State round-trips.
func TestSnapshotRoundTripExact(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		aggs := buildSnapshot(t, seed)
		data, err := json.Marshal(SnapshotOf(aggs, 123, 45))
		if err != nil {
			t.Fatal(err)
		}
		var snap Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Samples != 123 || snap.Records != 45 {
			t.Fatalf("totals lost: %d/%d", snap.Samples, snap.Records)
		}
		got := snap.Aggs()
		if !reflect.DeepEqual(got, aggs) {
			t.Fatalf("seed %d: snapshot round-trip diverged (%d flows)", seed, len(aggs))
		}
	}
}

// TestSnapshotMergeMatchesDirectMerge pins that decoded per-instance
// snapshots merge exactly like the in-process aggregates they came from.
func TestSnapshotMergeMatchesDirectMerge(t *testing.T) {
	a := buildSnapshot(t, 3)
	b := buildSnapshot(t, 4)
	want := collector.Merge(a, b)

	through := func(aggs []collector.FlowAgg) []collector.FlowAgg {
		data, err := json.Marshal(SnapshotOf(aggs, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		var s Snapshot
		if err := json.Unmarshal(data, &s); err != nil {
			t.Fatal(err)
		}
		return s.Aggs()
	}
	got := collector.Merge(through(a), through(b))
	if !reflect.DeepEqual(got, want) {
		t.Fatal("merge through the wire diverged from direct merge")
	}
}

// TestFlowRowMatchesAggDerivation spot-checks the row renderer against the
// aggregate's own accessors.
func TestFlowRowMatchesAggDerivation(t *testing.T) {
	aggs := buildSnapshot(t, 5)
	for i := range aggs {
		a := &aggs[i]
		row := FlowRow(a)
		if row.Samples != a.Est.N() || row.EstMeanNs != a.Est.Mean() ||
			row.EstStdNs != a.Est.Std() || row.TrueMeanNs != a.True.Mean() ||
			row.EstP50Ns != int64(a.Sketch.Quantile(0.5)) ||
			row.EstP99Ns != int64(a.Sketch.Quantile(0.99)) ||
			row.Packets != a.Packets || row.Bytes != a.Bytes {
			t.Fatalf("row %d diverges from aggregate: %+v", i, row)
		}
	}
}

// TestSnapshotVersionCheck pins the schema gate: current snapshots pass,
// and any other version — older, newer, or the implicit 0 of a
// pre-versioning peer — fails with an error naming both versions.
func TestSnapshotVersionCheck(t *testing.T) {
	if err := SnapshotOf(nil, 0, 0).Check(); err != nil {
		t.Fatalf("current-version snapshot rejected: %v", err)
	}
	// A version-1 peer's body: no version field existed, so it decodes as 0.
	var stale Snapshot
	if err := json.Unmarshal([]byte(`{"samples":1,"records":0,"flows":[]}`), &stale); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{stale.Version, 1, SnapshotVersion - 1, SnapshotVersion + 1} {
		s := Snapshot{Version: v}
		err := s.Check()
		if err == nil {
			t.Fatalf("version %d accepted", v)
		}
		if !strings.Contains(err.Error(), fmt.Sprint(v)) ||
			!strings.Contains(err.Error(), fmt.Sprint(SnapshotVersion)) {
			t.Fatalf("version error must name both versions, got: %v", err)
		}
	}
}

// TestRollupRowsMatchesAggDerivation checks the /rollup renderer against a
// real evicting collector's rollup.
func TestRollupRowsMatchesAggDerivation(t *testing.T) {
	coll := collector.New(collector.Config{Shards: 1, MaxFlows: 4})
	rng := rand.New(rand.NewSource(17))
	smps := make([]collector.Sample, 4000)
	for i := range smps {
		smps[i] = collector.Sample{
			Key: packet.FlowKey{
				Src:     packet.Addr(rng.Uint32()),
				Dst:     packet.Addr(rng.Uint32()),
				SrcPort: uint16(1 + rng.Intn(1<<15)),
				DstPort: 443,
				Proto:   packet.ProtoTCP,
			},
			Est: time.Duration(rng.Int63n(int64(time.Second))),
		}
	}
	coll.Ingest(smps)
	roll := coll.RollupSnapshot()
	coll.Close()
	if roll.Stats.Evicted == 0 || len(roll.Classes) == 0 {
		t.Fatalf("collector did not evict: %+v", roll.Stats)
	}

	got := RollupRows(roll)
	if got.FlowsTracked != roll.Stats.Flows || got.FlowsEvicted != roll.Stats.Evicted ||
		got.FlowsExpired != roll.Stats.Expired {
		t.Fatalf("rollup accounting diverged: %+v vs %+v", got, roll.Stats)
	}
	if len(got.Classes) != len(roll.Classes) {
		t.Fatalf("%d class rows, want %d", len(got.Classes), len(roll.Classes))
	}
	for i := range got.Classes {
		a, row := &roll.Classes[i], got.Classes[i]
		if row.Src != a.Key.Src.String() || row.Samples != a.Est.N() ||
			row.EstP50Ns != int64(a.Sketch.Quantile(0.5)) ||
			row.EstP99Ns != int64(a.Sketch.Quantile(0.99)) {
			t.Fatalf("class row %d diverges: %+v vs %+v", i, row, a)
		}
	}
	if got.Router.Src != "" || got.Router.Samples != roll.Root.Est.N() {
		t.Fatalf("router row diverges: %+v", got.Router)
	}
}
