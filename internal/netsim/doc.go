// Package netsim is a store-and-forward packet network simulator built on
// the discrete-event engine (internal/eventsim).
//
// It models what the paper's in-house trace-driven simulator models (§4.1,
// Figure 3): packets experience per-switch processing delay, FIFO drop-tail
// output queueing bounded in bytes, wire serialization at the link rate, and
// link propagation. Measurement instruments attach through taps — callbacks
// at transmit-start (egress hardware timestamping semantics), at node
// ingress, at local delivery, and at drop — and may inject packets into
// ports, which is how RLI senders emit reference packets. Workloads enter
// through per-node arrival streams (Node.AddArrival), which keep future
// arrivals off the event heap; Inject is for single packets.
//
// The simulator is deliberately single-threaded and allocation-lean: in a
// latency study the simulator must never perturb the quantity under
// measurement, so all instrument effects (added load from reference packets)
// are explicit packets, never hidden costs. Steady-state forwarding is
// zero-allocation (pinned by TestSteadyForwardingZeroAlloc); per-packet
// work routes through monomorphic typed events rather than closures.
//
// Mid-run reconfiguration is part of the model: Port.SetRate and
// Node.SetProcDelay change link rate and processing delay while packets
// are in flight, which is how the scenario engine (internal/scenario)
// schedules link-degrade and hop-delay faults. internal/topo builds k-ary
// fat-trees on top of this package; internal/core attaches the RLI
// instruments.
package netsim
