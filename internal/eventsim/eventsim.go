// Package eventsim implements a deterministic discrete-event simulation
// engine.
//
// Events are scheduled at nanosecond-resolution virtual instants
// (simtime.Time). The engine pops events in (time, scheduling order): two
// events scheduled for the same instant run in the order they were scheduled,
// which makes simulations bit-for-bit reproducible across runs with the same
// seed.
//
// Scheduling order is not stored as one global sequence number but as the
// pair (ord, k): ord is the execution index of the event that did the
// scheduling (0 for events scheduled during setup, before the run), and k
// counts that cause's schedule calls. For events at the same instant the
// lexicographic (ord, k) order equals call order — a cause that executed
// earlier made all its schedule calls earlier — so the total order is
// unchanged, but unlike a global counter it can be reconstructed per
// partition by the conservative parallel engine (parallel.go), which is what
// makes parallel runs bit-identical to sequential ones.
//
// The engine offers two scheduling APIs:
//
//   - At/After take a closure. This is the convenient path for cold callers
//     (experiment setup, tickers); each call captures its state in a heap
//     allocation.
//   - AtKind/AfterKind take a Kind registered via RegisterKind plus two
//     payload words. Handlers are installed once per kind; the payload is
//     carried by value inside the event heap slot, so scheduling allocates
//     nothing as long as the payload words are pointer-shaped (pointers,
//     funcs, channels, maps). This is the path the packet simulator's
//     per-packet events use.
//
// Internally the queue is a monomorphic 4-ary min-heap over a flat []event
// slice: no container/heap indirection, no interface boxing per element, and
// a branching factor that keeps parent/child slots on the same cache lines.
//
// The heap is meant to hold in-flight events only. A workload of many
// future arrivals does not have to be scheduled up front, which would make
// every push and pop sift through all of them: ReserveSetupKey takes an
// event's setup-time place in the order without scheduling it, and
// AtSetupKey later schedules it under exactly that key from inside a
// running event. A cursor that re-arms itself this way (netsim's per-node
// arrival streams) executes the same events in the same order as the
// pre-scheduled workload, while the heap holds one event per cursor. Pending
// therefore counts only materialized events: a stream's arrivals past its
// armed head are not pending yet.
//
// An Engine is single-goroutine: network simulation at packet granularity is
// dominated by the event heap and cache behaviour, and a single timeline
// avoids cross-goroutine nondeterminism. Multi-core scale-out is layered on
// top: Parallel (parallel.go) runs one Engine per logical process under a
// conservative window synchronization protocol that preserves the exact
// sequential event order.
package eventsim

import (
	"time"

	"github.com/netmeasure/rlir/internal/simtime"
)

// Handler is a scheduled action. It runs with the engine clock set to the
// instant it was scheduled for.
type Handler func()

// Kind identifies a typed-event handler registered with RegisterKind.
type Kind uint32

// TypedHandler executes one typed event. It receives the two payload words
// the event was scheduled with. Payloads are conventionally pointers (a
// node or port, and a packet); storing pointer-shaped values in the payload
// words performs no allocation.
type TypedHandler func(a, b any)

// kindFunc is the built-in kind backing the At/After closure API: payload
// word a holds the Handler.
const kindFunc Kind = 0

// flagLocal marks an ord value as a lane-local execution index that has not
// yet been resolved to a global one. Sequential engines never set it; in a
// Parallel lane every in-window cause carries it until the next barrier
// resolves the cause's global index. The flag occupies the top bit, so an
// unresolved ord compares after every resolved one — which is also the
// correct event order, because unresolved causes executed in the current
// window and resolved ones executed before it.
const flagLocal = uint64(1) << 63

// event is one heap slot. The payload words a and b are carried by value:
// popping an event never allocates, and dispatch goes through the engine's
// kind table rather than a captured closure.
type event struct {
	at   simtime.Time
	ord  uint64 // execution index of the scheduling cause (0 = setup)
	kind Kind
	k    uint32 // index among the cause's schedule calls
	a, b any
}

// before reports whether x orders strictly ahead of y in (at, ord, k) order.
func (x *event) before(y *event) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	if x.ord != y.ord {
		return x.ord < y.ord
	}
	return x.k < y.k
}

// SetupKey is a place in the setup-time schedule order taken by
// ReserveSetupKey: the index a setup schedule call made at that moment
// would have been stamped with.
type SetupKey uint32

// Engine is a discrete-event scheduler. The zero value is not usable; create
// one with New.
type Engine struct {
	now       simtime.Time
	ord       uint64 // cause word stamped on schedule calls (execution index of the running event)
	k         uint32 // next schedule-call index of the running event
	curOrd    uint64 // (ord, k) key of the running or last-run event
	curK      uint32
	events    []event // 4-ary min-heap ordered by (at, ord, k)
	kinds     []TypedHandler
	processed uint64
	stopped   bool

	// Parallel-lane state; nil/zero on a sequential engine.
	par       *Parallel
	laneID    int
	extK      *uint32      // shared setup counter during Parallel setup
	deferPast simtime.Time // while a window runs: schedules at/after this go to side
	side      []event      // events scheduled past the current window
	recs      []execRec    // events executed in the current window, in order
	effs      []effectRec  // effects emitted in the current window, in order
	outbox    [][]xmsg     // cross-lane messages by destination lane
}

// New returns an engine with its clock at the simulation epoch.
func New() *Engine {
	e := &Engine{}
	e.events = make([]event, 0, 1024)
	e.kinds = []TypedHandler{func(a, _ any) { a.(Handler)() }}
	return e
}

// RegisterKind installs a typed-event handler and returns its Kind. Kinds
// are engine-scoped; register them once at setup (registration order is part
// of the deterministic state, so register in a fixed order).
func (e *Engine) RegisterKind(h TypedHandler) Kind {
	if h == nil {
		panic("eventsim: RegisterKind with nil handler")
	}
	e.kinds = append(e.kinds, h)
	return Kind(len(e.kinds) - 1)
}

// Now returns the current virtual time.
func (e *Engine) Now() simtime.Time { return e.now }

// Pending returns the number of events waiting to run in the heap. Events a
// cursor has not armed yet under a reserved SetupKey are not counted.
func (e *Engine) Pending() int { return len(e.events) }

// Processed returns the total number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// At schedules fn to run at instant t. Scheduling in the past (t earlier than
// Now) panics: it would silently corrupt causality in a network simulation.
func (e *Engine) At(t simtime.Time, fn Handler) {
	e.schedule(t, kindFunc, fn, nil)
}

// After schedules fn to run d after the current instant. Negative d panics.
func (e *Engine) After(d time.Duration, fn Handler) {
	e.schedule(e.now.Add(d), kindFunc, fn, nil)
}

// AtKind schedules a typed event at instant t. Scheduling in the past
// panics. The payload words a and b are handed to the kind's handler when
// the event fires.
func (e *Engine) AtKind(t simtime.Time, k Kind, a, b any) {
	if uint32(k) >= uint32(len(e.kinds)) {
		panic("eventsim: AtKind with unregistered kind")
	}
	e.schedule(t, k, a, b)
}

// AfterKind schedules a typed event d after the current instant.
func (e *Engine) AfterKind(d time.Duration, k Kind, a, b any) {
	e.AtKind(e.now.Add(d), k, a, b)
}

// ReserveSetupKey takes the next setup-time schedule index without
// scheduling anything. An event later scheduled with AtSetupKey under the
// returned key orders exactly as an AtKind call made here instead would
// have. On a Parallel lane the index comes from the counter all lanes share
// during setup. Reserving once the run has started panics: a running
// event's schedule calls are ordered by its own execution index, not by
// setup order.
func (e *Engine) ReserveSetupKey() SetupKey {
	if e.ord != 0 {
		panic("eventsim: ReserveSetupKey after the run started")
	}
	return SetupKey(e.nextK())
}

// AtSetupKey schedules a typed event at instant t under a key reserved with
// ReserveSetupKey. It may be called from inside a running event: it leaves
// that event's schedule-call counter alone, so the event's own schedule
// calls keep the indices they would have had. The key must order after the
// running event's; an event at an earlier instant, or at the same instant
// but behind the running event, panics like scheduling in the past.
func (e *Engine) AtSetupKey(t simtime.Time, key SetupKey, kind Kind, a, b any) {
	if uint32(kind) >= uint32(len(e.kinds)) {
		panic("eventsim: AtSetupKey with unregistered kind")
	}
	if t < e.now || (t == e.now && e.processed > 0 && (e.curOrd != 0 || e.curK >= uint32(key))) {
		panic("eventsim: setup-key event at " + t.String() + " orders before the running event at " + e.now.String())
	}
	e.insert(event{at: t, kind: kind, k: uint32(key), a: a, b: b})
}

// nextK returns the next schedule-call index of the running event, or
// during setup the next setup index.
func (e *Engine) nextK() uint32 {
	if e.extK != nil {
		// Parallel setup: one counter shared across lanes keeps the global
		// setup call order, exactly like a single engine's would.
		k := *e.extK
		*e.extK = k + 1
		return k
	}
	k := e.k
	e.k++
	return k
}

func (e *Engine) schedule(t simtime.Time, kind Kind, a, b any) {
	if t < e.now {
		panic("eventsim: scheduling event in the past (" + t.String() + " < " + e.now.String() + ")")
	}
	e.insert(event{at: t, ord: e.ord, kind: kind, k: e.nextK(), a: a, b: b})
}

// insert pushes ev, or parks it while a Parallel window runs and ev belongs
// to a later window: its cause's global index is unknown until the barrier,
// which resolves ord and pushes it. A setup key (ord 0) resolves to itself.
func (e *Engine) insert(ev event) {
	if e.deferPast != 0 && ev.at >= e.deferPast {
		e.side = append(e.side, ev)
		return
	}
	e.push(ev)
}

// push sifts a new event up the 4-ary heap.
func (e *Engine) push(ev event) {
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.events = h
}

// pop removes and returns the minimum event, sifting the displaced tail
// element down. The vacated tail slot is zeroed so payload pointers do not
// outlive their event.
func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			m := c
			for j := c + 1; j < end; j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	e.events = h
	return top
}

// Stop makes the currently executing Run or RunUntil call return after the
// current event finishes. Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty or Stop is called. It returns
// the number of events executed by this call.
func (e *Engine) Run() uint64 {
	return e.RunUntil(simtime.Never)
}

// RunUntil executes events with timestamps <= deadline, advancing the clock
// as it goes. When it returns, the clock rests at the later of its previous
// value and the deadline (or at the last executed event when the deadline is
// simtime.Never). It returns the number of events executed by this call.
func (e *Engine) RunUntil(deadline simtime.Time) uint64 {
	e.stopped = false
	var n uint64
	for len(e.events) > 0 && !e.stopped {
		if e.events[0].at > deadline {
			break
		}
		ev := e.pop()
		e.now = ev.at
		e.curOrd, e.curK = ev.ord, ev.k
		e.processed++
		e.ord = e.processed
		e.k = 0
		e.kinds[ev.kind](ev.a, ev.b)
		n++
	}
	if deadline != simtime.Never && deadline > e.now && !e.stopped {
		e.now = deadline
	}
	return n
}

// Step executes exactly one event if any is pending and reports whether it
// did so.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.curOrd, e.curK = ev.ord, ev.k
	e.processed++
	e.ord = e.processed
	e.k = 0
	e.kinds[ev.kind](ev.a, ev.b)
	return true
}

// Ticker invokes fn every period, starting at start, until fn returns false.
// It is a convenience for periodic processes such as utilization sampling and
// clock resynchronization.
func (e *Engine) Ticker(start simtime.Time, period time.Duration, fn func(now simtime.Time) bool) {
	if period <= 0 {
		panic("eventsim: non-positive ticker period")
	}
	var tick Handler
	tick = func() {
		if !fn(e.now) {
			return
		}
		e.After(period, tick)
	}
	e.At(start, tick)
}
