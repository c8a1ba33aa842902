package netsim

import (
	"fmt"
	"time"

	"github.com/netmeasure/rlir/internal/eventsim"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/simtime"
)

// NodeID identifies a node within one Network. IDs are dense and start at 0.
type NodeID int32

// TapFunc observes a packet at an instrumentation point. Taps run
// synchronously inside the event that triggered them; the packet pointer is
// live simulation state, so taps must not retain it past the call unless
// they copy what they need.
type TapFunc func(p *packet.Packet, now simtime.Time)

// ForwardFunc chooses the output port index for a packet arriving at a node,
// or a negative value to deliver the packet locally (the node is the
// packet's destination). It runs after the node's processing delay.
type ForwardFunc func(n *Node, p *packet.Packet) int

// DelayFunc returns an extra per-packet delay a node adds on top of its
// configured processing delay. It must be a pure function of the packet and
// the instant (no retained state mutation ordered across lanes), which keeps
// a partitioned run deterministic: the node evaluates it on its own lane.
// Scenario fault injection uses it for the compromised-switch mode — a
// router that games measurement by delaying only the packets it predicts
// won't be sampled.
type DelayFunc func(p *packet.Packet, now simtime.Time) time.Duration

// EmulateFunc drives one link from recorded behaviour: for a packet about to
// propagate it returns extra one-way delay to add on top of the configured
// propagation, and whether the link drops the packet outright. Like
// DelayFunc it must be pure per (packet, instant) so partitioned runs stay
// deterministic. Trace-driven link emulation (internal/trace.LinkTrace)
// plugs in here.
type EmulateFunc func(p *packet.Packet, now simtime.Time) (extra time.Duration, drop bool)

// Network is a collection of nodes, ports and links sharing one event
// engine. Create with New.
type Network struct {
	eng        *eventsim.Engine
	par        *eventsim.Parallel // nil on a sequential network
	nodes      []*Node
	tracePaths bool
	nextPktID  uint64

	// Typed event kinds for the per-packet hot path. Every steady-state
	// forwarding step — workload arrival, post-processing dispatch, wire
	// transfer completion, propagation arrival — is a typed event whose
	// payload (node or port, plus packet) lives by value in the heap slot,
	// so forwarding a packet schedules no closures and allocates nothing.
	kReceive  eventsim.Kind // a: *Node, b: *packet.Packet — ingress arrival
	kDispatch eventsim.Kind // a: *Node, b: *packet.Packet — post-proc-delay forwarding
	kTxDone   eventsim.Kind // a: *Port, b: *packet.Packet — wire transfer complete
	kArrive   eventsim.Kind // a: *Node — workload stream cursor (stream.go)
}

// New returns an empty network on the given engine.
func New(eng *eventsim.Engine) *Network {
	nw := &Network{eng: eng}
	nw.kReceive = eng.RegisterKind(func(a, b any) { a.(*Node).receive(b.(*packet.Packet)) })
	nw.kDispatch = eng.RegisterKind(func(a, b any) { a.(*Node).dispatch(b.(*packet.Packet)) })
	nw.kTxDone = eng.RegisterKind(func(a, b any) { a.(*Port).txDone(b.(*packet.Packet)) })
	nw.kArrive = eng.RegisterKind(func(a, _ any) { a.(*Node).arrive() })
	return nw
}

// NewParallel returns an empty network on a conservative parallel engine.
// Nodes default to lane 0; place them with Assign before scheduling starts.
// Any link whose endpoints end up on different lanes becomes a cross-lane
// handoff and must have propagation >= the lookahead passed to Parallel.Run
// (MinCrossPropagation reports the largest legal value).
func NewParallel(p *eventsim.Parallel) *Network {
	nw := &Network{eng: p.Lane(0), par: p}
	nw.kReceive = p.RegisterKind(func(a, b any) { a.(*Node).receive(b.(*packet.Packet)) })
	nw.kDispatch = p.RegisterKind(func(a, b any) { a.(*Node).dispatch(b.(*packet.Packet)) })
	nw.kTxDone = p.RegisterKind(func(a, b any) { a.(*Port).txDone(b.(*packet.Packet)) })
	nw.kArrive = p.RegisterKind(func(a, _ any) { a.(*Node).arrive() })
	return nw
}

// Engine returns the event engine the network runs on (lane 0 when the
// network is partitioned).
func (nw *Network) Engine() *eventsim.Engine { return nw.eng }

// Parallel returns the parallel engine, or nil on a sequential network.
func (nw *Network) Parallel() *eventsim.Parallel { return nw.par }

// Assign places n on the given lane of the parallel engine. It panics on a
// sequential network and must happen before any event involving n is
// scheduled.
func (nw *Network) Assign(n *Node, lane int) {
	if nw.par == nil {
		panic("netsim: Assign on a sequential network")
	}
	n.eng = nw.par.Lane(lane)
}

// MinCrossPropagation returns the smallest propagation delay among links
// whose endpoints sit on different lanes, and whether any such link exists.
// It is the largest lookahead the partitioning supports: a cross-lane
// message travels at least this far into the future, so windows of this
// width can run lanes independently without violating timestamp order.
func (nw *Network) MinCrossPropagation() (time.Duration, bool) {
	var min time.Duration
	found := false
	for _, n := range nw.nodes {
		for _, pt := range n.ports {
			if pt.dst.eng == n.eng {
				continue
			}
			if !found || pt.cfg.Propagation < min {
				min = pt.cfg.Propagation
				found = true
			}
		}
	}
	return min, found
}

// SetTracePaths enables ground-truth path recording: every node appends its
// ID to Packet.Hops on ingress. Used by validation tests and the oracle
// demultiplexer only.
func (nw *Network) SetTracePaths(on bool) { nw.tracePaths = on }

// NewPacketID returns a fresh unique packet ID.
func (nw *Network) NewPacketID() uint64 {
	nw.nextPktID++
	return nw.nextPktID
}

// NodeConfig configures a node.
type NodeConfig struct {
	// Name is a human-readable label used in errors and dumps.
	Name string
	// ProcDelay is the fixed per-packet processing (lookup) delay applied
	// between ingress and the forwarding decision.
	ProcDelay time.Duration
}

// AddNode creates a node. Nodes forward nothing until SetForward is called;
// until then every packet is delivered locally (sink behaviour).
func (nw *Network) AddNode(cfg NodeConfig) *Node {
	n := &Node{
		net:  nw,
		eng:  nw.eng,
		id:   NodeID(len(nw.nodes)),
		name: cfg.Name,
		proc: cfg.ProcDelay,
		forward: func(*Node, *packet.Packet) int {
			return -1
		},
	}
	if n.name == "" {
		n.name = fmt.Sprintf("node%d", n.id)
	}
	nw.nodes = append(nw.nodes, n)
	return n
}

// Node returns the node with the given ID.
func (nw *Network) Node(id NodeID) *Node {
	return nw.nodes[id]
}

// Nodes returns the number of nodes.
func (nw *Network) Nodes() int { return len(nw.nodes) }

// Inject schedules p to arrive at node n's ingress at instant at. It is for
// single packets; workloads enter through Node.AddArrival, which keeps
// their future arrivals off the event heap. On a partitioned network the
// event lands on n's lane.
func (nw *Network) Inject(n *Node, p *packet.Packet, at simtime.Time) {
	n.eng.AtKind(at, nw.kReceive, n, p)
}

// LinkConfig configures a unidirectional link and the output queue feeding
// it.
type LinkConfig struct {
	// RateBps is the line rate in bits per second. Required.
	RateBps float64
	// Propagation is the one-way propagation delay.
	Propagation time.Duration
	// QueueBytes bounds the output queue in bytes, excluding the packet in
	// transmission. Zero means unbounded (no drops).
	QueueBytes int
}

// Connect attaches a new output port on from, linked to to's ingress, and
// returns the port. Links are unidirectional; call twice for a duplex pair.
func (nw *Network) Connect(from, to *Node, cfg LinkConfig) *Port {
	if cfg.RateBps <= 0 {
		panic(fmt.Sprintf("netsim: link %s->%s has non-positive rate", from.name, to.name))
	}
	p := &Port{
		node:  from,
		index: len(from.ports),
		dst:   to,
		cfg:   cfg,
	}
	from.ports = append(from.ports, p)
	return p
}

// Node is a switch, router or host.
type Node struct {
	net     *Network
	eng     *eventsim.Engine // the lane this node's events run on
	id      NodeID
	name    string
	proc    time.Duration
	extra   DelayFunc
	ports   []*Port
	forward ForwardFunc
	refID   uint64   // per-node packet ID counter (partitioned networks)
	in      arrivals // workload stream into ingress (stream.go)

	onReceive []TapFunc
	onDeliver []TapFunc

	// Counters.
	received  uint64
	delivered uint64
}

// ID returns the node's dense identifier.
func (n *Node) ID() NodeID { return n.id }

// Network returns the network the node belongs to.
func (n *Node) Network() *Network { return n.net }

// Engine returns the lane engine this node's events run on. On a sequential
// network it is the network's engine.
func (n *Node) Engine() *eventsim.Engine { return n.eng }

// NewPacketID returns a fresh packet ID unique across the network. On a
// sequential network it is the network-wide dense counter (the golden
// fixtures pin those values). On a partitioned network each node draws from
// its own ID space — node index in the high bits, a per-node counter below —
// because instruments on different lanes mint IDs concurrently. Consumers
// never decode IDs; reference-packet demux keys on (sender, timestamp).
func (n *Node) NewPacketID() uint64 {
	if n.net.par == nil {
		return n.net.NewPacketID()
	}
	n.refID++
	return uint64(n.id+1)<<40 | n.refID
}

// Name returns the node's label.
func (n *Node) Name() string { return n.name }

// Ports returns the node's output ports in creation order.
func (n *Node) Ports() []*Port { return n.ports }

// Port returns output port i.
func (n *Node) Port(i int) *Port { return n.ports[i] }

// SetForward installs the forwarding function.
func (n *Node) SetForward(f ForwardFunc) { n.forward = f }

// ProcDelay returns the node's per-packet processing delay.
func (n *Node) ProcDelay() time.Duration { return n.proc }

// SetProcDelay changes the node's per-packet processing delay. Experiments
// use it to inject latency anomalies into a running topology.
func (n *Node) SetProcDelay(d time.Duration) {
	if d < 0 {
		panic("netsim: negative processing delay")
	}
	n.proc = d
}

// SetSelectiveDelay installs (or with nil removes) a per-packet extra-delay
// hook evaluated at ingress, added on top of ProcDelay. Unlike SetProcDelay
// it can discriminate packets — the compromised-switch fault uses it to
// delay only traffic it predicts is unmeasured. A negative return panics.
func (n *Node) SetSelectiveDelay(f DelayFunc) { n.extra = f }

// OnReceive registers a tap run at packet ingress, before processing delay.
// Receiver instruments placed "at" a router attach here.
func (n *Node) OnReceive(t TapFunc) { n.onReceive = append(n.onReceive, t) }

// OnDeliver registers a tap run when a packet terminates at this node.
func (n *Node) OnDeliver(t TapFunc) { n.onDeliver = append(n.onDeliver, t) }

// Received returns the count of packets that entered this node.
func (n *Node) Received() uint64 { return n.received }

// Delivered returns the count of packets locally delivered at this node.
func (n *Node) Delivered() uint64 { return n.delivered }

// receive handles packet ingress.
func (n *Node) receive(p *packet.Packet) {
	now := n.eng.Now()
	n.received++
	if n.net.tracePaths {
		p.RecordHop(int32(n.id))
	}
	for _, t := range n.onReceive {
		t(p, now)
	}
	d := n.proc
	if n.extra != nil {
		e := n.extra(p, now)
		if e < 0 {
			panic("netsim: negative selective delay")
		}
		d += e
	}
	if d > 0 {
		n.eng.AfterKind(d, n.net.kDispatch, n, p)
		return
	}
	n.dispatch(p)
}

// dispatch applies the forwarding decision after processing delay.
func (n *Node) dispatch(p *packet.Packet) {
	out := n.forward(n, p)
	if out < 0 {
		n.deliver(p)
		return
	}
	if out >= len(n.ports) {
		panic(fmt.Sprintf("netsim: %s forwarded %v to nonexistent port %d", n.name, p, out))
	}
	n.ports[out].Enqueue(p)
}

func (n *Node) deliver(p *packet.Packet) {
	now := n.eng.Now()
	n.delivered++
	for _, t := range n.onDeliver {
		t(p, now)
	}
}

// PortCounters are the cumulative statistics of one port.
type PortCounters struct {
	Enqueued   uint64
	TxPackets  uint64
	TxBytes    uint64
	Drops      uint64
	DropBytes  uint64
	EmuDrops   uint64 // packets the link emulator dropped after transmission
	QueueBytes int    // instantaneous backlog, excluding packet in service
	QueueLen   int
}

// Port is an output port: a FIFO drop-tail queue draining onto a
// unidirectional link.
type Port struct {
	node  *Node
	index int
	dst   *Node
	cfg   LinkConfig

	queue  fifo
	qBytes int
	busy   bool
	emu    EmulateFunc

	onTxStart []TapFunc
	onDrop    []TapFunc

	ctr PortCounters
}

// Node returns the owning node.
func (pt *Port) Node() *Node { return pt.node }

// Index returns the port's index on its node.
func (pt *Port) Index() int { return pt.index }

// Dst returns the node at the far end of the link.
func (pt *Port) Dst() *Node { return pt.dst }

// Rate returns the configured line rate in bits per second.
func (pt *Port) Rate() float64 { return pt.cfg.RateBps }

// Propagation returns the link's one-way propagation delay.
func (pt *Port) Propagation() time.Duration { return pt.cfg.Propagation }

// SetRate changes the link's line rate. A packet already in transmission
// finishes at the rate it started with; packets starting transmission after
// the call serialize at the new rate — the way a renegotiated or degraded
// physical link behaves. Fault injection (scenario link-degrade) uses this
// mid-run.
func (pt *Port) SetRate(bps float64) {
	if bps <= 0 {
		panic(fmt.Sprintf("netsim: non-positive rate %v on %s port %d", bps, pt.node.name, pt.index))
	}
	pt.cfg.RateBps = bps
}

// SetPropagation changes the link's propagation delay. Experiments use it
// to model heterogeneous path lengths.
func (pt *Port) SetPropagation(d time.Duration) {
	if d < 0 {
		panic("netsim: negative propagation delay")
	}
	pt.cfg.Propagation = d
}

// SetEmulator installs (or with nil removes) a link emulator evaluated when
// a packet finishes transmission: extra delay is added on top of the
// configured propagation (never subtracted, so a partitioned run's
// cross-lane lookahead — derived from configured propagation — stays valid)
// and drops discard the packet on the wire, counted in Counters().EmuDrops.
// A negative extra delay panics.
func (pt *Port) SetEmulator(f EmulateFunc) { pt.emu = f }

// Counters returns a snapshot of the port's statistics.
func (pt *Port) Counters() PortCounters {
	c := pt.ctr
	c.QueueBytes = pt.qBytes
	c.QueueLen = pt.queue.len()
	return c
}

// OnTxStart registers a tap run at the instant a packet begins transmission
// on the wire — the point where egress hardware timestamping happens, and
// where both RLI sender and receiver instruments attach.
func (pt *Port) OnTxStart(t TapFunc) { pt.onTxStart = append(pt.onTxStart, t) }

// OnDrop registers a tap run when the queue rejects a packet.
func (pt *Port) OnDrop(t TapFunc) { pt.onDrop = append(pt.onDrop, t) }

// Enqueue places p in the output queue, dropping it if the byte bound would
// be exceeded. Instruments may call this to inject packets (reference
// packets enter the network here).
func (pt *Port) Enqueue(p *packet.Packet) {
	if p.Size <= 0 {
		panic(fmt.Sprintf("netsim: enqueue of zero-size packet %v", p))
	}
	if pt.cfg.QueueBytes > 0 && pt.qBytes+p.Size > pt.cfg.QueueBytes {
		pt.ctr.Drops++
		pt.ctr.DropBytes += uint64(p.Size)
		now := pt.node.eng.Now()
		for _, t := range pt.onDrop {
			t(p, now)
		}
		return
	}
	pt.queue.push(p)
	pt.qBytes += p.Size
	pt.ctr.Enqueued++
	if !pt.busy {
		pt.startTx()
	}
}

// startTx begins transmitting the head-of-line packet.
func (pt *Port) startTx() {
	p := pt.queue.pop()
	pt.qBytes -= p.Size
	pt.busy = true
	eng := pt.node.eng
	now := eng.Now()
	for _, t := range pt.onTxStart {
		t(p, now)
	}
	txDur := simtime.TxTime(p.Size, pt.cfg.RateBps)
	pt.ctr.TxPackets++
	pt.ctr.TxBytes += uint64(p.Size)
	eng.AfterKind(txDur, pt.node.net.kTxDone, pt, p)
}

// txDone handles wire transfer completion: hand off to propagation, then
// serve the next queued packet. A busy port therefore has exactly one
// pending event per in-flight packet — the tx-complete of the packet in
// service — and re-arms itself from it. When the far end lives on another
// lane the propagation hop becomes a cross-lane message; SendKind enforces
// that the delay covers the lookahead.
func (pt *Port) txDone(p *packet.Packet) {
	nw := pt.node.net
	src, dst := pt.node.eng, pt.dst.eng
	prop := pt.cfg.Propagation
	if pt.emu != nil {
		extra, drop := pt.emu(p, src.Now())
		if drop {
			pt.ctr.EmuDrops++
			pt.rearm()
			return
		}
		if extra < 0 {
			panic("netsim: negative emulated link delay")
		}
		prop += extra
	}
	switch {
	case dst != src:
		src.SendKind(dst, prop, nw.kReceive, pt.dst, p)
	case prop > 0:
		src.AfterKind(prop, nw.kReceive, pt.dst, p)
	default:
		pt.dst.receive(p)
	}
	pt.rearm()
}

// rearm serves the next queued packet after a transfer completes.
func (pt *Port) rearm() {
	if pt.queue.len() > 0 {
		pt.startTx()
	} else {
		pt.busy = false
	}
}

// fifo is a ring-buffer packet queue sized on demand. The buffer length is
// always a power of two so head/tail wrap with a mask instead of a modulo.
type fifo struct {
	buf        []*packet.Packet
	head, tail int
	n          int
}

func (f *fifo) len() int { return f.n }

func (f *fifo) push(p *packet.Packet) {
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[f.tail] = p
	f.tail = (f.tail + 1) & (len(f.buf) - 1)
	f.n++
}

func (f *fifo) pop() *packet.Packet {
	if f.n == 0 {
		panic("netsim: pop from empty queue")
	}
	p := f.buf[f.head]
	f.buf[f.head] = nil
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return p
}

func (f *fifo) grow() {
	next := make([]*packet.Packet, max(16, 2*len(f.buf)))
	mask := len(f.buf) - 1
	for i := 0; i < f.n; i++ {
		next[i] = f.buf[(f.head+i)&mask]
	}
	f.buf = next
	f.head, f.tail = 0, f.n&(len(next)-1)
}
