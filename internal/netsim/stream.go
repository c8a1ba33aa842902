package netsim

import (
	"fmt"
	"math"

	"github.com/netmeasure/rlir/internal/eventsim"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// Arrival is one workload packet entering a node's ingress.
type Arrival struct {
	At   simtime.Time
	ID   uint64
	Key  packet.FlowKey
	Size int
	Kind packet.Kind
}

// arrivalRec is an Arrival held by a node's stream plus the setup key it
// was given, laid out flat so a record takes 48 bytes.
type arrivalRec struct {
	at   simtime.Time
	id   uint64
	key  packet.FlowKey
	size int32
	sk   eventsim.SetupKey
	kind packet.Kind
}

// streamBlock is the number of records per block. Blocks are large so a
// workload costs a handful of allocations, and a consumed block is released
// as the cursor leaves it.
const streamBlock = 4096

// arrivals is a node's workload stream: compact arrival records, in
// nondecreasing time order, fed into the node's ingress without scheduling
// them up front. It keeps exactly one event on the engine, a cursor armed at
// the next record. When the cursor fires it builds that record's packet,
// re-arms itself at the following record and runs ingress inline. Every
// record takes its setup-time place in the event order when it is added
// (eventsim.ReserveSetupKey), and the cursor is armed under that place, so
// the stream executes the same events in the same order as scheduling each
// arrival with Inject at setup would, while the event heap holds only the
// in-flight events. On a partitioned network the cursor runs on the node's
// lane.
//
// Packets are carved from one slab per record block, allocated when the
// cursor enters the block, so a workload costs a handful of allocations
// rather than one per packet.
type arrivals struct {
	blocks [][]arrivalRec // unconsumed records, oldest block first
	head   int            // index of the armed record in blocks[0]
	pkts   []packet.Packet
}

// AddArrival appends one packet to the node's workload stream. It reserves
// the arrival's place in the setup schedule order, so the packet enters the
// node exactly where an Inject call made here would have put it, but only
// the stream's next arrival is ever on the event heap. AddArrival is for
// setup only, after the network is partitioned, and a node's arrivals must
// come in nondecreasing time: an earlier one panics rather than silently
// reorder.
func (n *Node) AddArrival(a Arrival) {
	s := &n.in
	nb := len(s.blocks)
	if nb > 0 {
		last := s.blocks[nb-1]
		if prev := last[len(last)-1].at; a.At < prev {
			panic(fmt.Sprintf("netsim: arrival into %s at %v before %v", n.name, a.At, prev))
		}
	}
	if a.Size <= 0 || a.Size > math.MaxInt32 {
		panic(fmt.Sprintf("netsim: arrival into %s of size %d", n.name, a.Size))
	}
	sk := n.eng.ReserveSetupKey()
	if nb == 0 || len(s.blocks[nb-1]) == streamBlock {
		s.blocks = append(s.blocks, make([]arrivalRec, 0, streamBlock))
		nb++
	}
	s.blocks[nb-1] = append(s.blocks[nb-1], arrivalRec{
		at: a.At, id: a.ID, key: a.Key, size: int32(a.Size), sk: sk, kind: a.Kind,
	})
	if nb == 1 && len(s.blocks[0]) == 1 {
		n.armArrival()
	}
}

// armArrival schedules the cursor at the head record under its reserved key.
func (n *Node) armArrival() {
	r := &n.in.blocks[0][n.in.head]
	n.eng.AtSetupKey(r.at, r.sk, n.net.kArrive, n, nil)
}

// arrive is the cursor event: build the head record's packet, re-arm at the
// next record, then run ingress.
func (n *Node) arrive() {
	s := &n.in
	b := s.blocks[0]
	if len(s.pkts) == 0 {
		s.pkts = make([]packet.Packet, len(b)-s.head)
	}
	r := &b[s.head]
	p := &s.pkts[0]
	s.pkts = s.pkts[1:]
	*p = packet.Packet{ID: r.id, Key: r.key, Size: int(r.size), Kind: r.kind}
	s.head++
	if s.head == len(b) {
		s.blocks[0] = nil
		s.blocks = s.blocks[1:]
		s.head = 0
	}
	if len(s.blocks) > 0 {
		n.armArrival()
	}
	n.receive(p)
}
