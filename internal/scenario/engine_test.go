package scenario

import (
	"testing"
	"time"

	"github.com/netmeasure/rlir/internal/runner"
)

// quickSpec is a fat-tree spec small enough for property tests.
func quickSpec() Spec {
	s := DefaultSpec()
	s.Topology.LinkBps = 200e6
	s.Topology.QueueBytes = 96 << 10
	s.Duration = 60 * time.Millisecond
	return s
}

// TestRunDeterministic pins the engine's determinism contract: the same
// spec and seed produce identical results.
func TestRunDeterministic(t *testing.T) {
	s := quickSpec()
	a, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Injected != b.Injected || a.Overall != b.Overall || a.Misattribution != b.Misattribution ||
		a.EstP99 != b.EstP99 || a.Samples != b.Samples {
		t.Fatalf("two runs of one spec differ:\n%s\n%s", a.Render(), b.Render())
	}
	if len(a.Routers) != len(b.Routers) || len(a.Segments) != len(b.Segments) || len(a.Fleet) != len(b.Fleet) {
		t.Fatalf("result shapes differ: routers %d/%d segments %d/%d fleet %d/%d",
			len(a.Routers), len(b.Routers), len(a.Segments), len(b.Segments), len(a.Fleet), len(b.Fleet))
	}
	for i := range a.Routers {
		if a.Routers[i] != b.Routers[i] {
			t.Fatalf("router %d differs: %+v vs %+v", i, a.Routers[i], b.Routers[i])
		}
	}
}

// TestRunSeedVariation sanity-checks that different seeds give different
// workloads (otherwise multi-seed CIs are fiction).
func TestRunSeedVariation(t *testing.T) {
	s := quickSpec()
	a, err := RunSeed(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSeed(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Injected == b.Injected && a.Overall.MedianRelErr == b.Overall.MedianRelErr {
		t.Fatal("seeds 1 and 2 produced identical runs")
	}
}

// TestHopDelayFaultRaisesSegment pins the second fault kind end to end: a
// +400µs processing delay at the destination pod's aggregation switch 1
// lies inside the downstream measured segment of every flow arriving via
// core group 1, so exactly the core1.* segments must show the shift — and
// the estimator must track it (references cross the same delayed hop).
func TestHopDelayFaultRaisesSegment(t *testing.T) {
	s := quickSpec()
	s.Duration = 100 * time.Millisecond
	s.Faults = []FaultSpec{{
		Kind:   FaultHopDelay,
		AggPod: 3, AggIdx: 1,
		Extra: 400 * time.Microsecond,
		Start: 0,
		End:   100 * time.Millisecond,
	}}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, slowName := range []string{"core1.0->tor3.0", "core1.1->tor3.0"} {
		slow, ok := res.Segment(slowName)
		if !ok {
			t.Fatalf("no flows through delayed segment %s", slowName)
		}
		for _, healthyName := range []string{"core0.0->tor3.0", "core0.1->tor3.0"} {
			seg, ok := res.Segment(healthyName)
			if !ok {
				t.Fatalf("no flows through healthy segment %s", healthyName)
			}
			if slow.TrueMean < seg.TrueMean+300*time.Microsecond {
				t.Fatalf("delayed segment %s true mean %v not ~400µs above healthy %s (%v)",
					slowName, slow.TrueMean, healthyName, seg.TrueMean)
			}
			if slow.EstMean < seg.EstMean+200*time.Microsecond {
				t.Fatalf("estimates did not track the injected delay: %v vs %v", slow.EstMean, seg.EstMean)
			}
		}
	}
}

// TestFaultWindowRestores pins fault scheduling: a fault confined to the
// first half of the run must leave a smaller latency footprint than the
// same fault active for the whole run.
func TestFaultWindowRestores(t *testing.T) {
	base := quickSpec()
	base.Duration = 100 * time.Millisecond
	whole := base
	whole.Faults = []FaultSpec{{Kind: FaultHopDelay, AggPod: 3, AggIdx: 0,
		Extra: 400 * time.Microsecond, Start: 0, End: 100 * time.Millisecond}}
	half := base
	half.Faults = []FaultSpec{{Kind: FaultHopDelay, AggPod: 3, AggIdx: 0,
		Extra: 400 * time.Microsecond, Start: 0, End: 50 * time.Millisecond}}
	rw, err := Run(whole)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Run(half)
	if err != nil {
		t.Fatal(err)
	}
	sw, ok1 := rw.Segment("core0.0->tor3.0")
	sh, ok2 := rh.Segment("core0.0->tor3.0")
	if !ok1 || !ok2 {
		t.Fatal("no flows through the delayed core")
	}
	if sh.TrueMean >= sw.TrueMean {
		t.Fatalf("half-run fault (%v) should hurt less than whole-run fault (%v)", sh.TrueMean, sw.TrueMean)
	}
}

// TestRunMultiWorkerInvariance pins the sweep determinism contract on real
// scenario runs: sweeping with 1 worker and 4 workers yields identical
// per-seed results.
func TestRunMultiWorkerInvariance(t *testing.T) {
	s := quickSpec()
	s.Duration = 40 * time.Millisecond
	seq, err := RunMulti(s, runner.MultiOpts{Seeds: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunMulti(s, runner.MultiOpts{Seeds: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.MedianRelErr != par.MedianRelErr || seq.P90RelErr != par.P90RelErr ||
		seq.HotLinkUtil != par.HotLinkUtil || len(seq.Fleet) != len(par.Fleet) {
		t.Fatalf("worker count changed sweep output:\n%s\n%s", seq.Render(), par.Render())
	}
	for i := range seq.PerSeed {
		if seq.PerSeed[i].Overall != par.PerSeed[i].Overall {
			t.Fatalf("seed %d differs across worker counts", i)
		}
	}
	if seq.MedianRelErr.N != 4 {
		t.Fatalf("metric N = %d, want 4", seq.MedianRelErr.N)
	}
}

// TestRunRejectsInvalidSpec pins that Run validates before building.
func TestRunRejectsInvalidSpec(t *testing.T) {
	s := quickSpec()
	s.Topology.K = 3
	if _, err := Run(s); err == nil {
		t.Fatal("Run accepted an invalid spec")
	}
	if _, err := RunMulti(s, runner.MultiOpts{Seeds: 2}); err == nil {
		t.Fatal("RunMulti accepted an invalid spec")
	}
}
