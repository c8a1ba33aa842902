package scenario

import (
	"fmt"
	"sort"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/crossinject"
	"github.com/netmeasure/rlir/internal/eventsim"
	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/netsim"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/runner"
	"github.com/netmeasure/rlir/internal/simtime"
	"github.com/netmeasure/rlir/internal/stats"
	"github.com/netmeasure/rlir/internal/topo"
	"github.com/netmeasure/rlir/internal/trace"
)

// baselinesOf strips "rli" from an effective estimator list: RLI is wired
// into the receiver deployment itself; everything else attaches as passive
// taps on the shared dispatch.
func baselinesOf(names []string) []string {
	out := make([]string, 0, len(names))
	for _, n := range names {
		if n != "rli" {
			out = append(out, n)
		}
	}
	return out
}

// Run executes one scenario at its spec seed.
func Run(spec Spec) (*Result, error) { return RunSeed(spec, spec.Seed) }

// RunSeed executes one scenario at an explicit seed (multi-seed sweeps
// derive per-run seeds and call this).
func RunSeed(spec Spec, seed int64) (*Result, error) {
	return runSeed(spec, seed, nil)
}

// runSeed dispatches on topology, optionally capturing the run's export
// stream (Export passes a capture; normal runs pass nil).
func runSeed(spec Spec, seed int64, cap *capture) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// A fleet spec needs the export stream even when the caller is not
	// exporting: the fleet report replays the captured samples through
	// partitioned collectors.
	if spec.Fleet != nil && cap == nil {
		cap = newCapture()
	}
	if spec.Topology.Kind == TopoTandem {
		return runTandem(spec, seed, cap)
	}
	return runFatTree(spec, seed, cap)
}

// scheme builds the injection scheme from the deployment spec.
func (s Spec) scheme() core.InjectionScheme {
	if s.Deploy.Scheme == SchemeAdaptive {
		a := core.DefaultAdaptive()
		if s.Deploy.MinGap > 0 {
			a.MinGap = s.Deploy.MinGap
		}
		if s.Deploy.MaxGap > 0 {
			a.MaxGap = s.Deploy.MaxGap
		}
		return a
	}
	n := s.Deploy.StaticN
	if n == 0 {
		n = 50
	}
	return core.Static{N: n}
}

// traceConfig builds the workload generator config for the given target
// rate, applying the spec's flow-shape overrides and the stationary warm-up
// with flow lengths capped relative to the window (the same calibration the
// experiments harness uses, so short runs still deliver their offered load).
func (s Spec) traceConfig(seed int64, targetBps float64) trace.Config {
	cfg := trace.DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = s.Duration
	cfg.TargetBps = targetBps
	if s.Workload.FlowAlpha > 0 {
		cfg.FlowLen.Alpha = s.Workload.FlowAlpha
	}
	if s.Workload.FlowMaxLen > 0 {
		cfg.FlowLen.Max = s.Workload.FlowMaxLen
	}
	if s.Workload.MeanGap > 0 {
		cfg.MeanGap = s.Workload.MeanGap
	}
	limit := 2 * int(cfg.Duration/cfg.MeanGap)
	if limit < 64 {
		limit = 64
	}
	if cfg.FlowLen.Max > limit {
		cfg.FlowLen.Max = limit
	}
	cfg.Warmup = cfg.StationaryWarmup()
	return cfg
}

// burstGate wraps src in the microburst on/off admission model when the
// spec asks for one. The generator's target rate must already be scaled by
// the inverse duty cycle so the admitted average load matches the spec.
func (s Spec) burstGate(src trace.Source, seed int64) trace.Source {
	if s.Workload.BurstPeriod == 0 {
		return src
	}
	return crossinject.NewSource(src, crossinject.NewBursty(s.Workload.BurstOn, s.Workload.BurstPeriod, 1, seed+2099))
}

// dutyBoost is the factor the offered rate is scaled up by to compensate
// for microburst off-time.
func (s Spec) dutyBoost() float64 {
	if s.Workload.BurstPeriod == 0 {
		return 1
	}
	return float64(s.Workload.BurstPeriod) / float64(s.Workload.BurstOn)
}

// upstreamSenderID identifies the sender at ToR(p,e) uplink j.
func upstreamSenderID(h, p, e, j int) core.SenderID {
	return core.SenderID(1000 + ((p*h+e)*h + j))
}

// downstreamSenderID identifies the sender instances at core (j,i).
func downstreamSenderID(h, j, i int) core.SenderID {
	return core.SenderID(2000 + j*h + i)
}

// countingDemux audits a strategy against ground truth.
type countingDemux struct {
	inner  core.Demux
	oracle core.Demux
	agree  uint64
	total  uint64
}

func (c *countingDemux) Classify(p *packet.Packet) (core.SenderID, bool) {
	id, ok := c.inner.Classify(p)
	if ok {
		if truth, tok := c.oracle.Classify(p); tok {
			c.total++
			if truth == id {
				c.agree++
			}
		}
	}
	return id, ok
}

func (c *countingDemux) Name() string { return "counting(" + c.inner.Name() + ")" }

// misattribution aggregates the audit across per-receiver counting demuxes
// (each monitored ToR gets its own instance so partitioned runs never share
// counters across lanes; the sums are identical either way).
func misattribution(cs []*countingDemux) float64 {
	var agree, total uint64
	for _, c := range cs {
		agree += c.agree
		total += c.total
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(agree)/float64(total)
}

// estSample is one deferred OnEstimate observation.
type estSample struct {
	key        packet.FlowKey
	est, truth time.Duration
}

// estFIFO carries one monitored-ToR receiver's OnEstimate observations from
// its lane to the single-threaded effect apply. One receiver's effects apply
// in emission order, so each effect pops the head, and the queue empties at
// every barrier (on one lane, at every estimate).
type estFIFO struct {
	q    []estSample
	head int
}

func (f *estFIFO) push(s estSample) { f.q = append(f.q, s) }

func (f *estFIFO) pop() estSample {
	s := f.q[f.head]
	f.head++
	if f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return s
}

// Router segment labels (RouterStats.Segment).
const (
	segmentUp   = "tor-uplink->core"
	segmentDown = "core->tor"
)

// downstreamSegment names the core (j,i) -> monitored ToR (p,e) segment
// (SegmentStats.Name).
func downstreamSegment(j, i, p, e int) string { return fmt.Sprintf("core%d.%d->tor%d.%d", j, i, p, e) }

// routerRx pairs a receiver with its identity and tail accumulators.
type routerRx struct {
	name    string
	segment string
	rx      *core.Receiver
	rec     *routerRec
	// tor is set for downstream receivers: the monitored (pod, tor).
	tor  [2]int
	down bool
}

// runFatTree composes and executes a fat-tree scenario. Every run is on the
// conservative parallel engine; the sequential engine is its one-lane case.
func runFatTree(spec Spec, seed int64, cap *capture) (*Result, error) {
	pe := eventsim.NewParallel(spec.lanes())
	nw := netsim.NewParallel(pe)
	tc := topo.DefaultConfig()
	tc.K = spec.Topology.K
	tc.LinkBps = spec.Topology.LinkBps
	tc.QueueBytes = spec.Topology.QueueBytes
	if spec.Topology.Propagation > 0 {
		tc.Propagation = spec.Topology.Propagation
	}
	if spec.Topology.ProcDelay > 0 {
		tc.ProcDelay = spec.Topology.ProcDelay
	}
	tc.MarkAtCores = spec.Deploy.Demux == DemuxMark
	ft, err := topo.Build(tc, nw)
	if err != nil {
		return nil, err
	}
	// Place cores on lane 0 and pods on the remaining lanes (a no-op on one
	// lane) before any instrument or event binds a node to its engine.
	if err := ft.Partition(); err != nil {
		return nil, err
	}
	nw.SetTracePaths(true) // oracle demux + misattribution audit

	k, h := spec.Topology.K, spec.half()
	monitored := spec.monitoredToRs()
	monPods := make([]int, 0, k)
	seenPod := make(map[int]bool, k)
	for _, m := range monitored {
		if !seenPod[m[0]] {
			seenPod[m[0]] = true
			monPods = append(monPods, m[0])
		}
	}
	allPairs := spec.Workload.Pattern == PatternAllPairs

	// Physical path differentiation toward every monitored pod.
	if skew := spec.Topology.CoreSkew; skew > 0 {
		for _, p := range monPods {
			for j := 0; j < h; j++ {
				for i := 0; i < h; i++ {
					port := ft.CoreDownPort(j, i, p)
					port.SetPropagation(port.Propagation() + time.Duration(j*h+i)*skew)
				}
			}
		}
	}

	scheme := spec.scheme()

	// --- Upstream instruments: senders at source-ToR uplinks, receivers at
	// cores (prefix demux on source subnets).
	sourcePods := make([]int, 0, k)
	for p := 0; p < k; p++ {
		if !allPairs && seenPod[p] {
			continue // single-destination patterns: the monitored pod only receives
		}
		sourcePods = append(sourcePods, p)
	}
	for _, p := range sourcePods {
		for e := 0; e < h; e++ {
			for j := 0; j < h; j++ {
				dsts := make([]packet.Addr, h)
				for i := 0; i < h; i++ {
					dsts[i] = ft.CoreAddr(j, i)
				}
				if _, err := core.AttachSender(ft.ToRUplink(p, e, j), core.SenderConfig{
					ID:        upstreamSenderID(h, p, e, j),
					Addr:      ft.ToRAddr(p, e),
					Receivers: dsts,
					Scheme:    scheme,
				}); err != nil {
					return nil, err
				}
			}
		}
	}
	var routers []*routerRx
	for j := 0; j < h; j++ {
		for i := 0; i < h; i++ {
			pd := core.NewPrefixDemux()
			for _, p := range sourcePods {
				for e := 0; e < h; e++ {
					pd.Add(ft.ToRSubnet(p, e), upstreamSenderID(h, p, e, j))
				}
			}
			addr := ft.CoreAddr(j, i)
			rec := &routerRec{}
			rx, err := core.AttachReceiverIngress(ft.Cores[j][i], core.ReceiverConfig{
				Demux:      pd,
				Accept:     func(p *packet.Packet) bool { return p.Kind == packet.Regular },
				AcceptRef:  func(p *packet.Packet) bool { return p.Key.Dst == addr },
				OnEstimate: func(_ packet.FlowKey, est, truth time.Duration) { rec.record(est, truth) },
			})
			if err != nil {
				return nil, err
			}
			routers = append(routers, &routerRx{
				name:    ft.Cores[j][i].Name(),
				segment: segmentUp,
				rx:      rx,
				rec:     rec,
			})
		}
	}

	// --- Downstream instruments: a sender at each core down-port toward a
	// monitored pod (references fanned to one anchor host per monitored ToR
	// of that pod), and one receiver per monitored ToR spanning its host
	// ports, demultiplexing with the strategy under test.
	for _, p := range monPods {
		var refs []packet.Addr
		for _, m := range monitored {
			if m[0] == p {
				refs = append(refs, ft.HostAddr(m[0], m[1], 0))
			}
		}
		for j := 0; j < h; j++ {
			for i := 0; i < h; i++ {
				if _, err := core.AttachSender(ft.CoreDownPort(j, i, p), core.SenderConfig{
					ID:        downstreamSenderID(h, j, i),
					Addr:      ft.CoreAddr(j, i),
					Receivers: refs,
					Scheme:    scheme,
				}); err != nil {
					return nil, err
				}
			}
		}
	}

	oracle := core.NewOracleDemux()
	for j := 0; j < h; j++ {
		for i := 0; i < h; i++ {
			oracle.Add(ft.Cores[j][i].ID(), downstreamSenderID(h, j, i))
		}
	}
	var strategy core.Demux
	switch spec.Deploy.Demux {
	case DemuxNone:
		strategy = core.SingleDemux{ID: downstreamSenderID(h, 0, 0)}
	case DemuxMark:
		md := core.NewMarkDemux()
		for j := 0; j < h; j++ {
			for i := 0; i < h; i++ {
				md.Add(ft.CoreMark(j, i), downstreamSenderID(h, j, i))
			}
		}
		strategy = md
	case DemuxOracle:
		strategy = oracle
	default: // "", DemuxReverseECMP
		strategy = core.FuncDemux{
			Label: "reverse-ecmp",
			F: func(p *packet.Packet) (core.SenderID, bool) {
				j, i, err := ft.ResolveCore(p.Key)
				if err != nil {
					return 0, false
				}
				return downstreamSenderID(h, j, i), true
			},
		}
	}
	var countings []*countingDemux

	// The collection plane: downstream estimates stream through the sharded
	// collector (upstream receivers keep local tails only, so one flow's
	// fleet aggregate is not a mix of two different segments).
	coll := collector.New(collector.Config{Shards: 4})
	sink := runner.NewSink(coll, 0)

	// --- The unified estimator layer. Every mechanism the spec requests
	// measures the same downstream (core -> monitored ToR) segment on this
	// single pass: the RLI receivers below implement the measure API
	// directly, and the baselines (LDA, sampling, Multiflow) hang off one
	// shared dispatch fed from the segment-start (core down-ports) and
	// segment-end (monitored ToR host ports) taps. Baselines are passive,
	// so the RLI results are bit-identical whether or not they attach.
	estNames := spec.EffectiveEstimators()
	baselines, err := measure.NewSet(baselinesOf(estNames), measure.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	truth := measure.NewTruth()
	shared := measure.NewDispatch(truth, baselines...)
	monSet := make(map[[2]int]bool, len(monitored))
	for _, m := range monitored {
		monSet[m] = true
	}
	upAccept := func(pk *packet.Packet) bool {
		if pk.Kind != packet.Regular {
			return false
		}
		dp, de, _, ok := ft.LocateHost(pk.Key.Dst)
		if !ok || !monSet[[2]int{dp, de}] {
			return false
		}
		sp, _, _, sok := ft.LocateHost(pk.Key.Src)
		return sok && sp != dp
	}

	// Replicated workloads record each copy's edge arrival by packet ID.
	// Both maps are filled at injection time (pre-run, single-threaded);
	// arrival writes happen only inside the single-threaded deferred-effect
	// apply, and a write keyed by the packet's unique ID is order-independent.
	var (
		repArrivals map[uint64]simtime.Time
		repWanted   map[uint64]bool
	)

	// The shared measurement plane (dispatch, collector sink, export
	// capture) is fed through deferred effects: lanes log observations
	// during a window and the barrier applies them single-threaded in global
	// event order — exactly the order a single heap runs these taps in.
	// Receiver-local state (rec, rli, counting) stays synchronous on its
	// lane. The packet fields the deferred consumers read (Key, Size, TOS,
	// SegmentStart) are all stable between the tap instant and the barrier.
	effStart := pe.RegisterEffect(func(at simtime.Time, a, _ any) {
		shared.TapStart(a.(*packet.Packet), at)
	})
	effEnd := pe.RegisterEffect(func(at simtime.Time, a, _ any) {
		pk := a.(*packet.Packet)
		shared.TapEnd(pk, at)
		cap.observe(pk, at)
		if repWanted[pk.ID] {
			repArrivals[pk.ID] = at
		}
	})
	effEst := pe.RegisterEffect(func(_ simtime.Time, a, _ any) {
		s := a.(*estFIFO).pop()
		sink.Add(s.key, s.est, s.truth)
		cap.addSample(s.key, s.est, s.truth)
	})

	for _, p := range monPods {
		for j := 0; j < h; j++ {
			for i := 0; i < h; i++ {
				port := ft.CoreDownPort(j, i, p)
				le := port.Node().Engine()
				port.OnTxStart(func(pk *packet.Packet, now simtime.Time) {
					if upAccept(pk) {
						le.Emit(effStart, now, pk, nil)
					}
				})
			}
		}
	}

	var rlis []*measure.RLI
	for _, m := range monitored {
		p, e := m[0], m[1]
		rec := &routerRec{}
		counting := &countingDemux{inner: strategy, oracle: oracle}
		countings = append(countings, counting)
		accept := func(pk *packet.Packet) bool {
			// Inter-pod regular traffic only: packets from inside the pod
			// never cross a core, so no reference stream measures them.
			sp, _, _, ok := ft.LocateHost(pk.Key.Src)
			return pk.Kind == packet.Regular && ok && sp != p
		}
		le := ft.ToRs[p][e].Engine()
		ests := &estFIFO{}
		rli, err := measure.NewRLI(ft.ToRs[p][e].Name(), core.ReceiverConfig{
			Demux:  counting,
			Accept: accept,
			OnEstimate: func(key packet.FlowKey, est, truth time.Duration) {
				rec.record(est, truth)
				ests.push(estSample{key: key, est: est, truth: truth})
				le.Emit(effEst, le.Now(), ests, nil)
			},
		})
		if err != nil {
			return nil, err
		}
		rlis = append(rlis, rli)
		for hh := 0; hh < h; hh++ {
			port := ft.ToRHostPort(p, e, hh)
			port.OnTxStart(rli.Tap)
			port.OnTxStart(func(pk *packet.Packet, now simtime.Time) {
				if accept(pk) {
					le.Emit(effEnd, now, pk, nil)
				}
			})
		}
		routers = append(routers, &routerRx{
			name:    ft.ToRs[p][e].Name(),
			segment: segmentDown,
			rx:      rli.Receiver(),
			rec:     rec,
			tor:     m,
			down:    true,
		})
	}

	// --- Faults: scheduled state changes on the running topology. Each
	// fault runs on the engine of the node whose state it mutates, so a
	// partitioned run never touches another lane's ports mid-window.
	for _, f := range spec.sortedFaults() {
		f := f
		switch f.Kind {
		case FaultLinkDegrade:
			port := ft.CoreDownPort(f.CoreJ, f.CoreI, f.DownPod)
			le := port.Node().Engine()
			healthy := spec.Topology.LinkBps
			le.At(simtime.FromDuration(f.Start), func() { port.SetRate(healthy * f.RateFactor) })
			le.At(simtime.FromDuration(f.End), func() { port.SetRate(healthy) })
		case FaultHopDelay:
			node := ft.Aggs[f.AggPod][f.AggIdx]
			le := node.Engine()
			base := node.ProcDelay()
			le.At(simtime.FromDuration(f.Start), func() { node.SetProcDelay(base + f.Extra) })
			le.At(simtime.FromDuration(f.End), func() { node.SetProcDelay(base) })
		}
	}

	// --- Adversary: a compromised aggregation switch selectively delaying
	// the packets it predicts will go unmeasured. The hook is a pure
	// function of (packet, instant) — the window test reads the tap-time
	// clock instead of scheduling state changes — so partitioned runs stay
	// bit-identical to sequential ones.
	if a := spec.Adversary; a != nil {
		node := ft.Aggs[a.AggPod][a.AggIdx]
		start, end := simtime.FromDuration(a.Start), simtime.FromDuration(a.End)
		extra, rate := a.Extra, a.PredictRate
		node.SetSelectiveDelay(func(pk *packet.Packet, now simtime.Time) time.Duration {
			if now.Before(start) || !now.Before(end) {
				return 0
			}
			if pk.Kind != packet.Regular {
				return 0 // RLI references are identifiable on the wire: fly clean
			}
			if measure.PredictPeriodic(pk.ID, rate) {
				return 0 // spare the periodic sampler's predictable subset
			}
			return extra
		})
	}

	// --- Link-trace replay: one core down-link's extra delay and loss
	// driven by a recorded time series. The drop decision is a pure keyed
	// hash of the packet ID, and the extra delay only ever adds to the
	// configured propagation, so partitioned lookahead stays valid.
	var emuPort *netsim.Port
	var emuTrace *trace.LinkTrace
	if l := spec.LinkTrace; l != nil {
		lt, err := l.trace()
		if err != nil {
			return nil, err
		}
		emuTrace = lt
		emuPort = ft.CoreDownPort(l.CoreJ, l.CoreI, l.DownPod)
		emuSeed := trace.SplitMix64(uint64(seed) ^ linkTraceSeedSalt)
		emuPort.SetEmulator(func(pk *packet.Packet, now simtime.Time) (time.Duration, bool) {
			return lt.Emulate(pk.ID, emuSeed, now.Duration())
		})
	}

	// --- Workload.
	injected, repPairs := spec.injectWorkload(nw, ft, seed)
	if spec.Workload.Replicate {
		repArrivals = make(map[uint64]simtime.Time, 2*len(repPairs))
		repWanted = make(map[uint64]bool, 2*len(repPairs))
		for _, pr := range repPairs {
			repWanted[pr.orig] = true
			repWanted[pr.rep] = true
		}
	}
	// The lookahead is the smallest cross-lane propagation delay — with the
	// pod/core partition map, the core-link propagation (plus any skew). A
	// single-lane run has no cross traffic; any window works.
	la, ok := nw.MinCrossPropagation()
	if !ok {
		la = time.Millisecond
	}
	pe.Run(la)

	// --- Harvest.
	res := &Result{Spec: spec, Seed: seed, Injected: injected}
	var downResults []core.FlowResult
	var estAll, trueAll stats.Histogram
	type segKey struct {
		j, i, p, e int
	}
	segFlows := map[segKey][]core.FlowResult{}
	for _, r := range routers {
		results := r.rx.Results(1)
		rs := RouterStats{Router: r.name, Segment: r.segment, Summary: core.Summarize(results)}
		r.rec.fill(&rs)
		res.Routers = append(res.Routers, rs)
		if !r.down {
			continue
		}
		downResults = append(downResults, results...)
		estAll.Merge(&r.rec.estH)
		trueAll.Merge(&r.rec.trueH)
		for _, fr := range results {
			j, i, err := ft.ResolveCore(fr.Key)
			if err != nil {
				continue
			}
			sk := segKey{j, i, r.tor[0], r.tor[1]}
			segFlows[sk] = append(segFlows[sk], fr)
		}
	}
	sort.Slice(res.Routers, func(a, b int) bool { return res.Routers[a].Router < res.Routers[b].Router })
	res.Overall = core.Summarize(downResults)
	res.EstP50, res.EstP99 = estAll.Quantile(0.5), estAll.Quantile(0.99)
	res.TrueP50, res.TrueP99 = trueAll.Quantile(0.5), trueAll.Quantile(0.99)
	res.Misattribution = misattribution(countings)

	// The estimator comparison table: one fleet-merged RLI report plus one
	// report per baseline, all scored against the shared ground truth.
	rliReps := make([]measure.Report, 0, len(rlis))
	for _, r := range rlis {
		rliReps = append(rliReps, r.Finalize())
	}
	reports := make([]measure.Report, 0, 1+len(baselines))
	reports = append(reports, measure.MergeReports("rli", rliReps...))
	for _, b := range baselines {
		reports = append(reports, b.Finalize())
	}
	res.Comparison = measure.Compare(truth, reports...)
	res.Comparison[0].Misattribution = misattribution(countings)
	res.TrueAggMean = truth.AggMean()
	if spec.Telemetry != nil {
		res.Telemetry = applyTelemetry(*spec.Telemetry, seed, truth, res.Comparison, reports)
	}

	for sk, frs := range segFlows {
		seg := SegmentStats{
			Name:  downstreamSegment(sk.j, sk.i, sk.p, sk.e),
			Flows: len(frs),
		}
		var estW, trueW float64
		errs := make([]float64, 0, len(frs))
		for _, fr := range frs {
			seg.Estimates += fr.N
			estW += float64(fr.EstMean) * float64(fr.N)
			trueW += float64(fr.TrueMean) * float64(fr.N)
			errs = append(errs, fr.RelErrMean)
		}
		if seg.Estimates > 0 {
			seg.EstMean = time.Duration(estW / float64(seg.Estimates))
			seg.TrueMean = time.Duration(trueW / float64(seg.Estimates))
		}
		seg.MedianRelErr = stats.NewCDF(errs).Median()
		res.Segments = append(res.Segments, seg)
	}
	sort.Slice(res.Segments, func(a, b int) bool { return res.Segments[a].Name < res.Segments[b].Name })

	// Hottest monitored access link.
	for _, m := range monitored {
		for hh := 0; hh < h; hh++ {
			c := ft.ToRHostPort(m[0], m[1], hh).Counters()
			u := simtime.Rate(int64(c.TxBytes), 0, simtime.FromDuration(spec.Duration)) / spec.Topology.LinkBps
			if u > res.HotLinkUtil {
				res.HotLinkUtil = u
			}
		}
	}

	sink.Flush()
	coll.Close()
	res.Fleet = coll.Snapshot()
	res.Samples = coll.SamplesIngested()
	if spec.Fleet != nil {
		res.FleetReport = applyFleet(*spec.Fleet, cap, truth, res.Comparison, reports, res)
	}
	if spec.LinkTrace != nil {
		res.LinkTrace = buildLinkTraceReport(*spec.LinkTrace, emuTrace, emuPort.Counters().EmuDrops)
	}
	if spec.Workload.Replicate {
		res.RepFlow = buildRepFlow(repPairs, repArrivals)
	}
	if spec.Adversary != nil {
		// Detection needs a paired clean run: the same spec and seed minus
		// the adversary, so every difference between the two results is the
		// compromised switch's doing. Telemetry and fleet re-scoring do not
		// move the comparison table, so the clean run skips them.
		clean := spec
		clean.Adversary = nil
		clean.Telemetry = nil
		clean.Fleet = nil
		cleanRes, err := runFatTree(clean, seed, nil)
		if err != nil {
			return nil, err
		}
		res.Detection = buildDetection(*spec.Adversary, res, cleanRes)
	}
	return res, nil
}

// injectWorkload generates the spec's traffic pattern and feeds it into the
// source hosts' arrival streams, returning the packet count and, for
// replicated workloads, the injection-time pair log (nil otherwise).
// Generation happens pre-run on the network-wide ID counter, so packet IDs
// and the pair log are identical across engines and partition counts.
func (spec Spec) injectWorkload(nw *netsim.Network, ft *topo.FatTree, seed int64) (int, []repPair) {
	k, h := spec.Topology.K, spec.half()
	q, e0 := spec.destPod(), spec.Workload.DestToR
	lb := spec.Topology.LinkBps

	var targetBps float64
	switch spec.Workload.Pattern {
	case PatternIncast:
		targetBps = spec.Workload.LoadFrac * lb
	case PatternAllPairs:
		targetBps = spec.Workload.LoadFrac * lb * float64(h) * float64(k*h)
	default: // converging, hotspot
		targetBps = spec.Workload.LoadFrac * lb * float64(h)
	}
	gen := spec.burstGate(trace.NewGenerator(spec.traceConfig(seed, targetBps*spec.dutyBoost())), seed)

	// Incast source host list: the first IncastFanIn hosts outside the
	// destination pod, in (pod, tor, host) order.
	var incastSrc []packet.Addr
	if spec.Workload.Pattern == PatternIncast {
		for p := 0; p < k && len(incastSrc) < spec.Workload.IncastFanIn; p++ {
			if p == q {
				continue
			}
			for e := 0; e < h && len(incastSrc) < spec.Workload.IncastFanIn; e++ {
				for hh := 0; hh < h && len(incastSrc) < spec.Workload.IncastFanIn; hh++ {
					incastSrc = append(incastSrc, ft.HostAddr(p, e, hh))
				}
			}
		}
	}
	hotPod := (q + 1) % k // hotspot: every skewed flow sources under this pod's ToR 0

	injected := 0
	var pairs []repPair
	for {
		rec, ok := gen.Next()
		if !ok {
			break
		}
		hash := rec.Key.FastHash()
		key := rec.Key
		switch spec.Workload.Pattern {
		case PatternAllPairs:
			sp := int(hash % uint64(k))
			se := int(hash >> 8 % uint64(h))
			sh := int(hash >> 16 % uint64(h))
			dp := int(hash >> 24 % uint64(k-1))
			if dp >= sp {
				dp++ // inter-pod only: same-pod pairs never cross a core
			}
			de := int(hash >> 32 % uint64(h))
			dh := int(hash >> 40 % uint64(h))
			key.Src = ft.HostAddr(sp, se, sh)
			key.Dst = ft.HostAddr(dp, de, dh)
		case PatternIncast:
			key.Src = incastSrc[int(hash%uint64(len(incastSrc)))]
			key.Dst = ft.HostAddr(q, e0, 0)
		case PatternHotspot:
			dh := int(hash >> 24 % uint64(h))
			key.Dst = ft.HostAddr(q, e0, dh)
			// A HotspotSkew fraction of flows source under the hot ToR.
			if float64(hash>>40&0xFFFF)/65536.0 < spec.Workload.HotspotSkew {
				key.Src = ft.HostAddr(hotPod, 0, int(hash>>16%uint64(h)))
			} else {
				sp := int(hash % uint64(k-1))
				if sp >= q {
					sp++
				}
				key.Src = ft.HostAddr(sp, int(hash>>8%uint64(h)), int(hash>>16%uint64(h)))
			}
		default: // converging
			sp := int(hash % uint64(k-1))
			if sp >= q {
				sp++
			}
			se := int(hash >> 8 % uint64(h))
			sh := int(hash >> 16 % uint64(h))
			dh := int(hash >> 24 % uint64(h))
			key.Src = ft.HostAddr(sp, se, sh)
			key.Dst = ft.HostAddr(q, e0, dh)
		}
		sp, se, sh, ok := ft.LocateHost(key.Src)
		if !ok {
			panic(fmt.Sprintf("scenario: remapped source %v is not a fat-tree host", key.Src))
		}
		host := ft.Hosts[sp][se][sh]
		orig := netsim.Arrival{At: rec.At, ID: nw.NewPacketID(), Key: key, Size: rec.Size, Kind: packet.Regular}
		host.AddArrival(orig)
		injected++
		if spec.Workload.Replicate {
			// RepFlow-style replica: the same payload under a source port
			// differing in one bit, so ECMP usually hashes the copy onto a
			// different core path. First arrival wins at harvest.
			rep := orig
			rep.ID = nw.NewPacketID()
			rep.Key.SrcPort ^= 1
			host.AddArrival(rep)
			injected++
			oj, oi, oerr := ft.ResolveCore(orig.Key)
			rj, ri, rerr := ft.ResolveCore(rep.Key)
			pairs = append(pairs, repPair{
				orig:     orig.ID,
				rep:      rep.ID,
				at:       rec.At,
				distinct: oerr == nil && rerr == nil && (oj != rj || oi != ri),
			})
		}
	}
	return injected, pairs
}
