package eventsim

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/simtime"
)

// Reserved setup keys let a cursor feed a workload into the engine lazily:
// each arrival reserves its setup-time place when it is planned, and the
// cursor schedules it under that key from inside the previous arrival's
// event. These tests run one random plan two ways — every setup event
// scheduled up front, and the arrivals fed through one re-arming cursor per
// stream — and require the identical execution log and event count, on the
// sequential engine and on a 2-lane Parallel. Arrival instants sit on the
// same coarse grid as the run-time events the plan spawns, so arrivals
// collide in time with run-time events and with ordinary setup events.

// rkSetup is one planned setup-time schedule call, in call order. Stream
// entries are the arrivals of the stream on their virtual lane.
type rkSetup struct {
	nd     *tieNode
	at     simtime.Time
	stream bool
}

func rkPlan(seed uint64) []rkSetup {
	var plan []rkSetup
	var last [tieLanes]simtime.Time
	q := int64(tieLookahead / 4)
	for i := 0; i < 80; i++ {
		h := tieMix(seed*0x9E37 + uint64(i))
		lane := int(h % tieLanes)
		nd := &tieNode{label: tieMix(h), depth: int(h >> 8 % 4), home: lane}
		if h>>16%3 == 0 {
			// An ordinary setup event anywhere in the window.
			plan = append(plan, rkSetup{nd: nd, at: simtime.Time(int64(h>>24%40) * q)})
			continue
		}
		// The stream's next arrival: never earlier than its previous one,
		// often at the same instant.
		last[lane] = last[lane].Add(time.Duration(int64(h>>24%3) * q))
		plan = append(plan, rkSetup{nd: nd, at: last[lane], stream: true})
	}
	return plan
}

// rkRec is one arrival held by a test cursor.
type rkRec struct {
	nd  *tieNode
	at  simtime.Time
	key SetupKey
}

// rkStream is a minimal cursor: records in time order, the head armed.
type rkStream struct {
	lane *Engine
	recs []rkRec
	next int
}

// add reserves the arrival's key and arms the cursor on the first one.
func (s *rkStream) add(nd *tieNode, at simtime.Time, kind Kind) {
	s.recs = append(s.recs, rkRec{nd: nd, at: at, key: s.lane.ReserveSetupKey()})
	if len(s.recs) == 1 {
		s.lane.AtSetupKey(at, s.recs[0].key, kind, s, s.lane)
	}
}

// pop returns the head arrival and re-arms the cursor at the next one.
func (s *rkStream) pop(kind Kind) *tieNode {
	nd := s.recs[s.next].nd
	s.next++
	if s.next < len(s.recs) {
		r := s.recs[s.next]
		s.lane.AtSetupKey(r.at, r.key, kind, s, s.lane)
	}
	return nd
}

func runReservedSequential(seed uint64, plan []rkSetup, cursor bool) ([]tieEntry, uint64) {
	var log []tieEntry
	eng := New()
	var kind, kCur Kind
	visit := func(nd *tieNode) {
		log = append(log, tieEntry{nd.label, eng.Now()})
		tieActions(seed, nd, func(child *tieNode, _ int, d time.Duration) {
			eng.AfterKind(d, kind, child, nil)
		})
	}
	kind = eng.RegisterKind(func(a, _ any) { visit(a.(*tieNode)) })
	kCur = eng.RegisterKind(func(a, _ any) { visit(a.(*rkStream).pop(kCur)) })
	var streams [tieLanes]*rkStream
	for _, su := range plan {
		if !cursor || !su.stream {
			eng.AtKind(su.at, kind, su.nd, nil)
			continue
		}
		s := streams[su.nd.home]
		if s == nil {
			s = &rkStream{lane: eng}
			streams[su.nd.home] = s
		}
		s.add(su.nd, su.at, kCur)
	}
	eng.Run()
	return log, eng.Processed()
}

func runReservedParallel(seed uint64, plan []rkSetup, cursor bool, partitions int) ([]tieEntry, uint64) {
	var log []tieEntry
	pe := NewParallel(partitions)
	logK := pe.RegisterEffect(func(at simtime.Time, a, _ any) {
		log = append(log, tieEntry{a.(*tieNode).label, at})
	})
	var kind, kCur Kind
	visit := func(lane *Engine, nd *tieNode) {
		lane.Emit(logK, lane.Now(), nd, nil)
		tieActions(seed, nd, func(child *tieNode, vlane int, d time.Duration) {
			dst := pe.Lane(vlane % partitions)
			lane.SendKind(dst, d, kind, child, dst)
		})
	}
	kind = pe.RegisterKind(func(a, b any) { visit(b.(*Engine), a.(*tieNode)) })
	kCur = pe.RegisterKind(func(a, b any) { visit(b.(*Engine), a.(*rkStream).pop(kCur)) })
	var streams [tieLanes]*rkStream
	for _, su := range plan {
		lane := pe.Lane(su.nd.home % partitions)
		if !cursor || !su.stream {
			lane.AtKind(su.at, kind, su.nd, lane)
			continue
		}
		s := streams[su.nd.home]
		if s == nil {
			s = &rkStream{lane: lane}
			streams[su.nd.home] = s
		}
		s.add(su.nd, su.at, kCur)
	}
	pe.Run(tieLookahead)
	return log, pe.Processed()
}

func TestReservedKeyCursorMatchesPrescheduled(t *testing.T) {
	collisions := 0
	for seed := uint64(1); seed <= 30; seed++ {
		plan := rkPlan(seed)
		want, wantN := runReservedSequential(seed, plan, false)

		// The plan must actually make arrivals collide with other events.
		arrival := map[uint64]bool{}
		for _, su := range plan {
			if su.stream {
				arrival[su.nd.label] = true
			}
		}
		for i := 1; i < len(want); i++ {
			if want[i].at == want[i-1].at && arrival[want[i].label] != arrival[want[i-1].label] {
				collisions++
			}
		}

		got, gotN := runReservedSequential(seed, plan, true)
		if gotN != wantN || !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d sequential: cursor ran %d events, pre-scheduled %d; logs equal: %v",
				seed, gotN, wantN, reflect.DeepEqual(got, want))
		}
		for _, cursor := range []bool{false, true} {
			got, gotN := runReservedParallel(seed, plan, cursor, 2)
			if gotN != wantN || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d parallel(2) cursor=%v: ran %d events, sequential %d; logs equal: %v",
					seed, cursor, gotN, wantN, reflect.DeepEqual(got, want))
			}
		}
	}
	if collisions == 0 {
		t.Fatal("no arrival shared an instant with a non-arrival event; the plan tests nothing")
	}
}

// mustPanic runs f and requires a panic whose message contains want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	f()
}

// TestReservedKeyNeverReorders: a cursor whose next record orders before
// the running event panics like scheduling in the past instead of running
// it out of order, and keys cannot be reserved once the run has started.
func TestReservedKeyNeverReorders(t *testing.T) {
	t.Run("earlier instant", func(t *testing.T) {
		eng := New()
		k1, k2 := eng.ReserveSetupKey(), eng.ReserveSetupKey()
		var kind Kind
		kind = eng.RegisterKind(func(_, _ any) { eng.AtSetupKey(5, k2, kind, nil, nil) })
		eng.AtSetupKey(10, k1, kind, nil, nil)
		mustPanic(t, "orders before the running event", func() { eng.Run() })
	})
	t.Run("same instant, earlier key", func(t *testing.T) {
		eng := New()
		k1, k2 := eng.ReserveSetupKey(), eng.ReserveSetupKey()
		var kind Kind
		kind = eng.RegisterKind(func(_, _ any) { eng.AtSetupKey(10, k1, kind, nil, nil) })
		eng.AtSetupKey(10, k2, kind, nil, nil)
		mustPanic(t, "orders before the running event", func() { eng.Run() })
	})
	t.Run("same instant, behind a run-time event", func(t *testing.T) {
		eng := New()
		k := eng.ReserveSetupKey()
		var kind Kind
		kind = eng.RegisterKind(func(a, _ any) {
			if a == nil {
				eng.AtKind(eng.Now(), kind, true, nil) // a run-time event at the same instant
				return
			}
			eng.AtSetupKey(eng.Now(), k, kind, nil, nil)
		})
		eng.AtKind(10, kind, nil, nil)
		mustPanic(t, "orders before the running event", func() { eng.Run() })
	})
	t.Run("reserve after start", func(t *testing.T) {
		eng := New()
		eng.At(1, func() { eng.ReserveSetupKey() })
		mustPanic(t, "after the run started", func() { eng.Run() })
	})
	t.Run("later key at the same instant is fine", func(t *testing.T) {
		eng := New()
		k1, k2 := eng.ReserveSetupKey(), eng.ReserveSetupKey()
		ran := 0
		var kind Kind
		kind = eng.RegisterKind(func(a, _ any) {
			ran++
			if a != nil {
				eng.AtSetupKey(10, k2, kind, nil, nil)
			}
		})
		eng.AtSetupKey(10, k1, kind, true, nil)
		eng.Run()
		if ran != 2 || eng.Processed() != 2 {
			t.Fatalf("ran %d events, processed %d; want 2", ran, eng.Processed())
		}
	})
}
