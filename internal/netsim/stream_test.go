package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/eventsim"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

type streamObs struct {
	id   uint64
	kind packet.Kind
	at   simtime.Time
	hops string
}

// runStreamWorkload feeds two traffic sources into a line of switches, once
// with Inject per packet and once through each node's arrival stream. A ticker
// and a mid-run injection land on the same microsecond grid as the
// arrivals, so stream events tie with other setup and run-time events.
func runStreamWorkload(seed int64, stream bool) ([]streamObs, uint64, int) {
	rng := rand.New(rand.NewSource(seed))
	eng := eventsim.New()
	nw := New(eng)
	nw.SetTracePaths(true)
	a := nw.AddNode(NodeConfig{Name: "a", ProcDelay: 500 * time.Nanosecond})
	b := nw.AddNode(NodeConfig{Name: "b"})
	sink := nw.AddNode(NodeConfig{Name: "sink"})
	link := LinkConfig{RateBps: 1e9, Propagation: time.Microsecond, QueueBytes: 8 << 10}
	nw.Connect(a, b, link)
	nw.Connect(b, sink, link)
	a.SetForward(func(*Node, *packet.Packet) int { return 0 })
	b.SetForward(func(*Node, *packet.Packet) int { return 0 })

	var log []streamObs
	sink.OnDeliver(func(p *packet.Packet, now simtime.Time) {
		log = append(log, streamObs{p.ID, p.Kind, now, fmt.Sprint(p.Hops)})
	})
	eng.Ticker(0, 3*time.Microsecond, func(now simtime.Time) bool {
		return now < simtime.FromDuration(2*time.Millisecond)
	})

	var at [2]simtime.Time
	for i := 0; i < 3000; i++ {
		src := rng.Intn(2)
		at[src] = at[src].Add(time.Duration(rng.Intn(3)) * time.Microsecond)
		arr := Arrival{At: at[src], ID: nw.NewPacketID(), Size: packet.MinSize + rng.Intn(1400), Kind: packet.Regular}
		into := a
		if src == 1 {
			arr.Kind = packet.Cross
			into = b
		}
		if stream {
			into.AddArrival(arr)
		} else {
			nw.Inject(into, &packet.Packet{ID: arr.ID, Key: arr.Key, Size: arr.Size, Kind: arr.Kind}, arr.At)
		}
	}
	eng.At(simtime.FromDuration(time.Millisecond), func() {
		nw.Inject(a, &packet.Packet{ID: nw.NewPacketID(), Size: 1000}, eng.Now())
	})
	pending := eng.Pending()
	eng.Run()
	return log, eng.Processed(), pending
}

// TestStreamMatchesInject: a workload fed through streams executes the
// same events in the same order as the same workload injected up front,
// while the heap holds one cursor per stream instead of every arrival.
func TestStreamMatchesInject(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		want, wantN, wantPending := runStreamWorkload(seed, false)
		got, gotN, gotPending := runStreamWorkload(seed, true)
		if gotN != wantN {
			t.Fatalf("seed %d: stream run processed %d events, inject run %d", seed, gotN, wantN)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: deliveries differ (%d vs %d)", seed, len(got), len(want))
		}
		// Ticker + mid-run closure + one cursor per stream.
		if gotPending != 4 || wantPending < 3000 {
			t.Fatalf("seed %d: pending at start %d with streams, %d with Inject", seed, gotPending, wantPending)
		}
	}
}

func TestStreamRejectsEarlierArrival(t *testing.T) {
	a := New(eventsim.New()).AddNode(NodeConfig{Name: "a"})
	a.AddArrival(Arrival{At: 10, ID: 1, Size: 100})
	a.AddArrival(Arrival{At: 10, ID: 2, Size: 100})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "before") {
			t.Fatalf("out-of-order Add: recovered %v, want a panic", r)
		}
	}()
	a.AddArrival(Arrival{At: 9, ID: 3, Size: 100})
}

// TestStreamAllocations: a workload costs a few allocations per record
// block, not one per packet, and forwarding through the cursor allocates
// nothing per packet.
func TestStreamAllocations(t *testing.T) {
	const n = 3 * streamBlock
	allocs := testing.AllocsPerRun(3, func() {
		eng := eventsim.New()
		nw := New(eng)
		a := nw.AddNode(NodeConfig{Name: "a"})
		for i := 0; i < n; i++ {
			a.AddArrival(Arrival{At: simtime.Time(i), ID: uint64(i + 1), Size: 100})
		}
		eng.Run()
		if a.Delivered() != n {
			t.Fatalf("delivered %d of %d", a.Delivered(), n)
		}
	})
	if allocs > 30 {
		t.Fatalf("%.0f allocations for %d packets", allocs, n)
	}
}
