package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"github.com/netmeasure/rlir/internal/queryapi"
	"github.com/netmeasure/rlir/internal/scenario"
)

const (
	// setupRepeats is how many times an untraced run sets up; setup_s is
	// the median.
	setupRepeats = 5
	// ownShare and probeShare split an untraced run's --seconds: the
	// workload's own stage gets ownShare, and each of the two other stages,
	// which every run measures too so that it reports every end-to-end
	// metric, gets probeShare.
	ownShare, probeShare = 0.5, 0.25
	// offeredRate is the open-loop generator's rate during query phases, in
	// samples/s: about a quarter of the closed-loop replay rate measured on
	// a 2-vCPU host (2.9M samples/s), so ingest keeps up unless queries
	// starve it.
	offeredRate = 700_000
	// replaySegments is the number of timed replay segments of a traced
	// run's replay probe.
	replaySegments = 15
	// tailQueries is the fewest queries of a query phase that reports
	// query_p90_ms, however long that takes: enough for a p90 with at least
	// ten samples beyond it.
	tailQueries = 110
	// medianQueries is the fewest queries of a query phase that reports
	// medians only: ten beyond the p50.
	medianQueries = 20
)

// runSimFattree repeats scenario.RunSeed of the default k=4 fat-tree spec
// on the sequential engine. Set-up is the first (reference) runs; every
// later run must equal the reference exactly. The fleet stages follow as
// probes on the incast capture.
func runSimFattree(o options, rep *report) error {
	spec := scenario.DefaultSpec()
	var ref *scenario.Result
	var setups []float64
	for i := 0; i < o.setupReps(); i++ {
		t0 := readClock()
		res, err := runScenario(spec, o.seed, rep)
		if err != nil {
			return err
		}
		setups = append(setups, t0.hostElapsed().Seconds())
		if ref == nil {
			ref = normalize(res)
		} else if err := sameResult(ref, res); err != nil {
			return checkError{err}
		}
	}
	rep.set("setup_s", median(setups))
	if err := simStage(o, spec, ref, true, rep); err != nil {
		return err
	}
	return fleetProbe(o, rep, true)
}

// runIngestReplay replays the default spec's capture through a fleet
// router into two rlird instances at line rate. The simulator and the
// query path follow as probes.
func runIngestReplay(o options, rep *report) error {
	spec := scenario.DefaultSpec()
	fs, err := fleetSetup(spec, o.seed, o.setupReps(), nil, o.tr, rep)
	if err != nil {
		return err
	}
	rep.set("setup_s", median(fs.setups))
	err = replayStage(o, &fs, true, rep)
	fs.f.close()
	if err != nil {
		return err
	}
	if err := simStage(o, spec, fs.ref, false, rep); err != nil {
		return err
	}
	return fleetProbe(o, rep, false)
}

// runQueryMixed preloads the registered incast scenario's capture into the
// fleet, replays it at line rate, then runs one closed-loop /flows client
// beside the open-loop generator. The simulator follows as a probe.
func runQueryMixed(o options, rep *report) error {
	sc, err := incast()
	if err != nil {
		return err
	}
	fs, err := fleetSetup(sc.Spec, o.seed, o.setupReps(), sc.Check, o.tr, rep)
	if err != nil {
		return err
	}
	rep.set("setup_s", median(fs.setups))
	err = replayStage(o, &fs, false, rep)
	if err == nil {
		err = queryStage(o, &fs, true, rep)
	}
	fs.f.close()
	if err != nil {
		return err
	}
	return simStage(o, sc.Spec, fs.ref, false, rep)
}

// fleetProbe measures the fleet stages for a workload whose own stage is
// not the query path: the incast capture preloaded into a fresh fleet,
// then its replay (withReplay) and the query phase.
func fleetProbe(o options, rep *report, withReplay bool) error {
	sc, err := incast()
	if err != nil {
		return err
	}
	fs, err := fleetSetup(sc.Spec, o.seed, 1, sc.Check, o.tr, rep)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	defer fs.f.close()
	if withReplay {
		if err := replayStage(o, &fs, false, rep); err != nil {
			return err
		}
	}
	return queryStage(o, &fs, false, rep)
}

func incast() (scenario.Scenario, error) {
	sc, ok := scenario.Get("incast")
	if !ok {
		return sc, fmt.Errorf("scenario incast is not registered")
	}
	return sc, nil
}

// simStage measures repeated RunSeed of spec, each checked against ref.
// Untraced, it runs for its share of --seconds and sets sim_pkts_per_s.
// Traced, the workload's own stage runs untraced and then traced for half
// of --seconds each, and sets the overhead, process and CPU-profile
// metrics; a probe runs once, traced. Either way a traced run sets the
// scenario.* metrics.
func simStage(o options, spec scenario.Spec, ref *scenario.Result, own bool, rep *report) error {
	if !o.trace {
		settle()
		runs, err := simLoop(spec, o.seed, ref, o.stageSeconds(own), nil, nil, rep)
		if err != nil {
			return err
		}
		rep.set("sim_pkts_per_s", float64(ref.Injected)/median(runs.secs))
		return nil
	}
	if !own {
		runs, err := simLoop(spec, o.seed, ref, 0, o.tr, nil, rep)
		if err != nil {
			return err
		}
		return reportScenarioLayer(spec, o.seed, ref, runs, o.tr, rep)
	}
	settle()
	plain, err := simLoop(spec, o.seed, ref, o.seconds/2, nil, nil, rep)
	if err != nil {
		return err
	}
	settle()
	traced, err := simLoop(spec, o.seed, ref, o.seconds/2, o.tr, o.prof, rep)
	if err != nil {
		return err
	}
	rep.set("trace_overhead_frac", 1-median(plain.secs)/median(traced.secs))
	rep.set("process.cpu_util", traced.usage.cpuUtil())
	rep.set("runtime.gc_cpu_frac", traced.usage.gcFrac())
	setCPUFractions(rep, o.prof)
	return reportScenarioLayer(spec, o.seed, ref, traced, o.tr, rep)
}

// replayStage replays the capture at line rate into the preloaded fleet
// and then checks the fleet ingested every sample routed so far, with no
// router drops and no decode errors. Untraced, it runs for its share of
// --seconds and sets ingest_samples_per_s. Traced, the workload's own
// stage runs untraced and then traced for half of --seconds each and sets
// the overhead, process and CPU-profile metrics; a probe runs
// replaySegments segments, traced. Either way a traced run sets the
// ingest-layer metrics.
func replayStage(o options, fs *fleetSet, own bool, rep *report) error {
	samples := fs.capture.Samples
	switch {
	case !o.trace:
		settle()
		st, err := fs.f.replay(samples, 0, after(o.stageSeconds(own)), nil)
		if err := fs.account(st, err, rep); err != nil {
			return err
		}
		rep.set("ingest_samples_per_s", st.rate())
	case !own:
		settle()
		from := o.tr.now()
		st, err := fs.f.replay(samples, replaySegments, time.Time{}, o.tr)
		if err := fs.account(st, err, rep); err != nil {
			return err
		}
		reportReplayLayers(rep, st, o.tr, from, o.tr.now())
	default:
		settle()
		plain, err := fs.f.replay(samples, 0, after(o.seconds/2), nil)
		if err := fs.account(plain, err, rep); err != nil {
			return err
		}
		settle()
		u0, from := readUsage(), o.tr.now()
		if err := o.prof.start(); err != nil {
			return err
		}
		traced, err := fs.f.replay(samples, 0, after(o.seconds/2), o.tr)
		if perr := o.prof.stop(); err == nil {
			err = perr
		}
		u := readUsage().since(u0)
		if err := fs.account(traced, err, rep); err != nil {
			return err
		}
		rep.set("process.cpu_util", u.cpuUtil())
		rep.set("runtime.gc_cpu_frac", u.gcFrac())
		setCPUFractions(rep, o.prof)
		reportReplayLayers(rep, traced, o.tr, from, o.tr.now())
		rep.set("trace_overhead_frac", 1-traced.rate()/plain.rate())
	}
	return checkIngestEnd(fs.f, fs.expect, fs.dropped, rep)
}

// queryStage runs query phases: one closed-loop /flows client beside the
// open-loop generator. Untraced, it runs for its share of --seconds (and at
// least medianQueries queries) and sets query_p50_ms and
// mixed_ingest_samples_per_s. Traced, the workload's own stage runs an
// untraced phase for half of --seconds (and at least tailQueries queries),
// which gives query_p90_ms, then a traced twin for the other half, which
// gives the overhead, process and CPU-profile metrics; a probe runs
// tailQueries queries, traced. Either way a traced run sets the
// query-layer metrics.
func queryStage(o options, fs *fleetSet, own bool, rep *report) error {
	if !o.trace {
		qs, err := fs.queries(o.stageSeconds(own), medianQueries, nil, rep)
		if err != nil {
			return err
		}
		p50, err := percentile(qs.latMs, 50)
		if err != nil {
			return fmt.Errorf("query phase: %w", err)
		}
		rep.set("query_p50_ms", p50)
		rep.set("mixed_ingest_samples_per_s", qs.achieved)
		return nil
	}
	if !own {
		from := o.tr.now()
		qs, err := fs.queries(0, tailQueries, o.tr, rep)
		if err != nil {
			return err
		}
		if err := setP90(qs, rep); err != nil {
			return err
		}
		return reportQueryLayers(rep, qs, o.tr, from, o.tr.now())
	}
	plain, err := fs.queries(o.seconds/2, tailQueries, nil, rep)
	if err != nil {
		return err
	}
	if err := setP90(plain, rep); err != nil {
		return err
	}
	u0, from := readUsage(), o.tr.now()
	if err := o.prof.start(); err != nil {
		return err
	}
	traced, err := fs.queries(o.seconds/2, medianQueries, o.tr, rep)
	if perr := o.prof.stop(); err == nil {
		err = perr
	}
	u := readUsage().since(u0)
	if err != nil {
		return err
	}
	rep.set("process.cpu_util", u.cpuUtil())
	rep.set("runtime.gc_cpu_frac", u.gcFrac())
	setCPUFractions(rep, o.prof)
	if err := reportQueryLayers(rep, traced, o.tr, from, o.tr.now()); err != nil {
		return err
	}
	p50, err := percentile(plain.latMs, 50)
	if err != nil {
		return fmt.Errorf("query phase: %w", err)
	}
	tp50, err := percentile(traced.latMs, 50)
	if err != nil {
		return fmt.Errorf("traced query phase: %w", err)
	}
	rep.set("trace_overhead_frac", tp50/p50-1)
	return nil
}

func setP90(qs queryStats, rep *report) error {
	p90, err := percentile(qs.latMs, 90)
	if err != nil {
		return fmt.Errorf("query phase: %d queries cannot support a p90: %w", len(qs.latMs), err)
	}
	rep.set("query_p90_ms", p90)
	return nil
}

// fleetSet is a fleet workload's set-up output and the running count of
// what its fleet must have ingested.
type fleetSet struct {
	capture *scenario.Trace
	ref     *scenario.Result // the capture's result, normalized
	f       *fleetUnderTest
	setups  []float64 // host seconds per set-up
	// expect is the samples routed into f so far; dropped the router drops.
	expect, dropped uint64
}

// account adds one replay's samples to the set's running counts and to the
// run's operations, and passes err on.
func (fs *fleetSet) account(st replayStats, err error, rep *report) error {
	fs.expect += st.routed
	fs.dropped += st.dropped
	rep.ops(int64(st.routed), int64(st.routed-st.ingested))
	return err
}

// queries runs one query phase of dur seconds and at least minQueries
// queries against the set's fleet and checks every answer.
func (fs *fleetSet) queries(dur float64, minQueries int, tr *tracer, rep *report) (queryStats, error) {
	settle()
	flows := len(fs.capture.Result.Fleet)
	qs, err := fs.f.queryUnderIngest(fs.capture.Samples, flows, offeredRate, seconds(dur), minQueries, tr)
	fs.expect += qs.sent
	if err != nil {
		return qs, err
	}
	if err := checkQueries(qs, flows, rep); err != nil {
		return qs, err
	}
	fmt.Fprintf(os.Stderr, "query phase: %d queries, ingest offered %.0f samples/s, achieved %.0f samples/s, %d samples not ingested\n",
		qs.attempted, qs.offered, qs.achieved, qs.unIngest)
	return qs, nil
}

// fleetSetup is the set-up of the fleet stages: export the spec's capture
// at seed, start the fleet and preload one pass of the capture. It runs
// reps times and keeps the last fleet. Every export must pass check (when
// set) and give the same result, and the preloaded fleet's merged
// /snapshot must equal the capture's flow table exactly.
func fleetSetup(spec scenario.Spec, seed int64, reps int, check func(*scenario.Result) error, tr *tracer, rep *report) (fleetSet, error) {
	var fs fleetSet
	for i := 0; i < reps; i++ {
		if fs.f != nil {
			fs.f.close()
			fs.f = nil
			settle()
		}
		t0 := readClock()
		capture, err := scenario.Export(spec, seed)
		rep.ops(1, 0)
		if err != nil {
			rep.ops(0, 1)
			return fs, failCheck("export %s: %v", spec.Name, err)
		}
		if fs.f, err = startFleet(tr); err != nil {
			return fs, err
		}
		var st replayStats
		if err := fs.f.replaySegment(capture.Samples, 1, nil, &st); err != nil {
			fs.f.close()
			return fs, err
		}
		fs.setups = append(fs.setups, t0.hostElapsed().Seconds())
		rep.ops(int64(st.routed), int64(st.routed-st.ingested))
		if st.ingested != st.routed {
			fs.f.close()
			return fs, failCheck("preload ingested %d of %d samples", st.ingested, st.routed)
		}
		if check != nil {
			if err := check(capture.Result); err != nil {
				fs.f.close()
				return fs, failCheck("%s invariant on the capture's result: %v", spec.Name, err)
			}
		}
		if fs.ref == nil {
			fs.ref = normalize(capture.Result)
		} else if err := sameResult(fs.ref, capture.Result); err != nil {
			fs.f.close()
			return fs, checkError{err}
		}
		fs.capture = capture
		fs.expect = st.routed
	}
	merged, err := fs.f.mergedSnapshot()
	if err != nil {
		fs.f.close()
		return fs, err
	}
	if err := sameFlows(fs.capture.Result.Fleet, merged); err != nil {
		fs.f.close()
		return fs, checkError{err}
	}
	return fs, nil
}

// checkIngestEnd checks the fleet ingested exactly expect samples with no
// router drops and no decode errors.
func checkIngestEnd(f *fleetUnderTest, expect, dropped uint64, rep *report) error {
	decodeErrs, err := f.decodeErrors()
	if err != nil {
		return err
	}
	rep.set("service.decode_errors", float64(decodeErrs))
	rep.ops(0, int64(decodeErrs))
	if got := f.ingested(); got != expect || dropped != 0 || decodeErrs != 0 {
		return failCheck("fleet ingested %d samples, want %d (router drops %d, decode errors %d)", got, expect, dropped, decodeErrs)
	}
	return nil
}

// checkQueries accounts a query phase's operations and checks that every
// /flows answered 200 with one row per capture flow.
func checkQueries(qs queryStats, wantRows int, rep *report) error {
	rep.ops(qs.attempted, qs.failed)
	rep.ops(int64(qs.sent), int64(qs.unIngest))
	if qs.failed > 0 {
		return failCheck("%d of %d /flows requests failed", qs.failed, qs.attempted)
	}
	if qs.badRows > 0 {
		return failCheck("%d /flows answers lacked one row per capture flow (%d)", qs.badRows, wantRows)
	}
	var rows []queryapi.FlowJSON
	if err := json.Unmarshal(qs.lastBody, &rows); err != nil {
		return failCheck("/flows answer is not a flow table: %v", err)
	}
	if len(rows) != wantRows {
		return failCheck("/flows has %d rows, the capture has %d flows", len(rows), wantRows)
	}
	return nil
}

// simRuns is what simLoop measured.
type simRuns struct {
	secs, allocs, allocMB []float64
	usage                 usage // summed over the traced runs
}

// runScenario is one RunSeed, counted as an operation.
func runScenario(spec scenario.Spec, seed int64, rep *report) (*scenario.Result, error) {
	res, err := scenario.RunSeed(spec, seed)
	rep.ops(1, 0)
	if err != nil {
		rep.ops(0, 1)
		return nil, failCheck("RunSeed %s: %v", spec.Name, err)
	}
	return res, nil
}

// simLoop repeats RunSeed for dur seconds (at least once), checking every
// result against ref, and records each run's host seconds. Traced (tr set), each run gets a "scenario.run" span,
// allocation deltas, CPU usage and a profile segment (prof set).
func simLoop(spec scenario.Spec, seed int64, ref *scenario.Result, dur float64, tr *tracer, prof *cpuProfile, rep *report) (simRuns, error) {
	var out simRuns
	deadline := time.Now().Add(seconds(dur))
	for len(out.secs) == 0 || time.Now().Before(deadline) {
		var ms0, ms1 runtime.MemStats
		var u0 usage
		if tr != nil {
			runtime.ReadMemStats(&ms0)
			u0 = readUsage()
			if err := prof.start(); err != nil {
				return out, err
			}
		}
		t0, tt0 := readClock(), tr.now()
		res, err := scenario.RunSeed(spec, seed)
		d := t0.hostElapsed()
		if tr != nil {
			if perr := prof.stop(); perr != nil {
				return out, perr
			}
			out.usage = out.usage.add(readUsage().since(u0))
			runtime.ReadMemStats(&ms1)
			tr.record(span{Name: "scenario.run", Start: tt0, End: tr.now()})
			out.allocs = append(out.allocs, float64(ms1.Mallocs-ms0.Mallocs))
			out.allocMB = append(out.allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		}
		rep.ops(1, 0)
		if err != nil {
			rep.ops(0, 1)
			return out, failCheck("RunSeed %s: %v", spec.Name, err)
		}
		if err := sameResult(ref, res); err != nil {
			return out, checkError{err}
		}
		out.secs = append(out.secs, d.Seconds())
	}
	return out, nil
}

// reportScenarioLayer sets the scenario.* per-layer metrics from traced
// sequential runs, plus one traced run of the same spec on the parallel
// engine with 2 partitions, which must equal the sequential reference.
func reportScenarioLayer(spec scenario.Spec, seed int64, ref *scenario.Result, runs simRuns, tr *tracer, rep *report) error {
	rep.set("scenario.run_s", median(runs.secs))
	rep.set("scenario.allocs_per_run", median(runs.allocs))
	rep.set("scenario.alloc_mb_per_run", median(runs.allocMB))
	rep.set("scenario.injected_pkts", float64(ref.Injected))
	rep.set("scenario.samples", float64(ref.Samples))
	rep.set("scenario.flows", float64(len(ref.Fleet)))
	rep.set("scenario.samples_per_pkt", float64(ref.Samples)/float64(ref.Injected))

	par := spec
	par.Engine, par.Partitions = scenario.EngineParallel, 2
	t0, tt0 := readClock(), tr.now()
	res, err := runScenario(par, seed, rep)
	d := t0.hostElapsed().Seconds()
	tr.record(span{Name: "scenario.parallel2", Start: tt0, End: tr.now()})
	if err != nil {
		return err
	}
	if err := sameResult(ref, res); err != nil {
		return failCheck("parallel engine, 2 partitions: %v", err)
	}
	rep.set("scenario.parallel2_run_s", d)
	rep.set("scenario.parallel2_speedup", median(runs.secs)/d)
	return nil
}

// reportReplayLayers sets the ingest-stage per-layer metrics of one traced
// replay whose spans started in [from, to).
func reportReplayLayers(rep *report, st replayStats, tr *tracer, from, to int64) {
	rep.set("fleet.route_wait_frac", totalSeconds(tr.named("fleet.route", from, to))/st.wall)
	rep.set("service.send_frac", totalSeconds(tr.named("service.send", from, to))/(st.wall*fleetInstances))
	rep.set("collector.drain_s", median(st.drains))
	rep.set("ingest.allocs_per_sample", float64(st.mallocs)/float64(st.routed))
	rep.set("fleet.frames_sent", float64(st.frames))
	rep.set("fleet.dropped", float64(st.dropped))
}

// reportQueryLayers sets the query-stage per-layer metrics of one traced
// query phase whose spans started in [from, to). A query's gather time is
// its slowest instance request; its self time (what the front-end spends
// decoding, merging and rendering, plus the client's HTTP hop) is its span
// minus the union of its instance requests.
func reportQueryLayers(rep *report, qs queryStats, tr *tracer, from, to int64) error {
	children := map[uint64][]span{}
	for _, s := range tr.named("fleet.instance", from, to) {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var query, gather, self, snapBytes []float64
	for _, q := range tr.named("fleet.query", from, to) {
		kids := children[q.ID]
		if len(kids) != fleetInstances {
			return fmt.Errorf("query %d has %d instance spans, want %d", q.ID, len(kids), fleetInstances)
		}
		slowest := 0.0
		for _, k := range kids {
			slowest = max(slowest, ms(k.dur()))
			snapBytes = append(snapBytes, float64(k.Bytes))
		}
		query = append(query, ms(q.dur()))
		gather = append(gather, slowest)
		self = append(self, ms(selfTime(q, kids)))
	}
	durs := func(name string) []float64 {
		var out []float64
		for _, s := range tr.named(name, from, to) {
			out = append(out, ms(s.dur()))
		}
		return out
	}
	rep.set("fleet.query_ms", median(query))
	rep.set("fleet.gather_ms", median(gather))
	rep.set("fleet.merge_render_ms", median(self))
	rep.set("service.snapshot_ttfb_ms", median(durs("service.snapshot_ttfb")))
	rep.set("service.snapshot_body_ms", median(durs("service.snapshot_body")))
	rep.set("queryapi.snapshot_bytes", median(snapBytes))
	rep.set("queryapi.flows_bytes", median(qs.flowsBytes))
	rep.set("mixed.offered_samples_per_s", qs.offered)
	p99, err := percentile(qs.lateMs, 99)
	if err != nil {
		return fmt.Errorf("generator lateness: %w", err)
	}
	rep.set("mixed.gen_late_ms_p99", p99)
	rep.set("mixed.gen_late_ms_max", maxOf(qs.lateMs))
	return nil
}

func setCPUFractions(rep *report, p *cpuProfile) {
	for b, f := range p.fractions() {
		rep.set(b+".cpu_frac", f)
	}
}

// usage is process CPU time and Go GC CPU time at an instant, or summed
// over intervals.
type usage struct {
	wall, cpu time.Duration
	gcSec     float64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return usage{
		wall:  time.Since(processStart),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcSec: s[0].Value.Float64(),
	}
}

// since is the interval from an earlier reading to u.
func (u usage) since(prev usage) usage {
	return usage{wall: u.wall - prev.wall, cpu: u.cpu - prev.cpu, gcSec: u.gcSec - prev.gcSec}
}

func (u usage) add(v usage) usage {
	return usage{wall: u.wall + v.wall, cpu: u.cpu + v.cpu, gcSec: u.gcSec + v.gcSec}
}

// cpuUtil is process CPU time over wall time and CPU count.
func (u usage) cpuUtil() float64 {
	return u.cpu.Seconds() / u.wall.Seconds() / float64(runtime.NumCPU())
}

// gcFrac is the share of process CPU time spent in the Go GC.
func (u usage) gcFrac() float64 { return u.gcSec / u.cpu.Seconds() }

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// settle collects garbage before a measured phase or a set-up repetition,
// so each starts from the same heap state whatever ran before it.
func settle() { runtime.GC() }

var processStart = time.Now()

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// after is the instant s seconds from now.
func after(s float64) time.Time { return time.Now().Add(seconds(s)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
