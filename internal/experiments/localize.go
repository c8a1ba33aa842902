package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/eventsim"
	"github.com/netmeasure/rlir/internal/netsim"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/topo"
	"github.com/netmeasure/rlir/internal/trace"
)

// AnomalySite places a latency fault in the localization scenario.
type AnomalySite uint8

const (
	// AnomalyNone runs a healthy network.
	AnomalyNone AnomalySite = iota
	// AnomalySrcAgg slows an aggregation switch in the source pod: the
	// fault lands inside the ToR->core segments of one core group.
	AnomalySrcAgg
	// AnomalyDstAgg slows an aggregation switch in the destination pod:
	// the fault lands inside the core->ToR segments of one group.
	AnomalyDstAgg
)

func (a AnomalySite) String() string {
	switch a {
	case AnomalyNone:
		return "none"
	case AnomalySrcAgg:
		return "src-agg"
	case AnomalyDstAgg:
		return "dst-agg"
	default:
		return fmt.Sprintf("site(%d)", uint8(a))
	}
}

// LocalizationConfig is the paper's running scenario (T1 -> T7 across the
// cores of Figure 1): one source ToR's flows to one destination ToR,
// measured as per-core segments, with an optional injected fault.
type LocalizationConfig struct {
	K          int
	LinkBps    float64
	QueueBytes int
	Duration   time.Duration
	Seed       int64
	Scheme     core.InjectionScheme
	// SrcPod/SrcToR and DestPod/DestToR pick the endpoints.
	SrcPod, SrcToR   int
	DestPod, DestToR int
	// LoadFrac is offered load relative to one host link.
	LoadFrac float64
	// Site / AggIndex / ExtraDelay describe the fault.
	Site       AnomalySite
	AggIndex   int
	ExtraDelay time.Duration
	// Threshold is the localizer's anomaly ratio (default 3).
	Threshold float64
}

// DefaultLocalizationConfig returns the k=4, T1->T7-style scenario with a
// 300µs fault at the destination pod's aggregation switch 0.
func DefaultLocalizationConfig() LocalizationConfig {
	return LocalizationConfig{
		K: 4, LinkBps: 1e9, QueueBytes: 256 << 10,
		Duration: 200 * time.Millisecond, Seed: 1,
		Scheme: core.Static{N: 40},
		SrcPod: 0, SrcToR: 0, DestPod: 3, DestToR: 0,
		LoadFrac:   0.6,
		Site:       AnomalyDstAgg,
		AggIndex:   0,
		ExtraDelay: 300 * time.Microsecond,
		Threshold:  3,
	}
}

// LocalizationResult reports the calibration and fault runs.
type LocalizationResult struct {
	Config LocalizationConfig
	// Baseline and Faulty are per-segment reports from the two runs, in
	// matching order (upstream segments first, then downstream).
	Baseline []core.SegmentReport
	Faulty   []core.SegmentReport
	// Anomalies is the localizer's verdict.
	Anomalies []core.Anomaly
	// ExpectedSegments names segments that truly contain the fault.
	ExpectedSegments []string
}

// Localized reports whether every flagged segment is truly faulty and at
// least one faulty segment was flagged.
func (r LocalizationResult) Localized() bool {
	if len(r.ExpectedSegments) == 0 {
		return len(r.Anomalies) == 0
	}
	if len(r.Anomalies) == 0 {
		return false
	}
	expected := map[string]bool{}
	for _, s := range r.ExpectedSegments {
		expected[s] = true
	}
	for _, a := range r.Anomalies {
		if !expected[a.Segment] {
			return false
		}
	}
	return true
}

// RunLocalization runs the healthy calibration pass and the faulty pass,
// then localizes with per-segment baselines — the paper's end-to-end story:
// RLIR divides the T1->T7 path into segments and the inflated segment
// identifies the sick router group.
func RunLocalization(cfg LocalizationConfig) LocalizationResult {
	if cfg.Threshold == 0 {
		cfg.Threshold = 3
	}
	base := runLocalizationPass(cfg, false)
	faulty := runLocalizationPass(cfg, true)

	loc := core.NewLocalizer(cfg.Threshold)
	loc.CalibrateFrom(base)
	res := LocalizationResult{Config: cfg}
	for _, s := range base {
		res.Baseline = append(res.Baseline, s.Report())
	}
	for _, s := range faulty {
		res.Faulty = append(res.Faulty, s.Report())
	}
	res.Anomalies = loc.Examine(faulty)

	h := cfg.K / 2
	switch cfg.Site {
	case AnomalySrcAgg:
		for i := 0; i < h; i++ {
			res.ExpectedSegments = append(res.ExpectedSegments, upSegName(cfg.AggIndex, i))
		}
	case AnomalyDstAgg:
		for i := 0; i < h; i++ {
			res.ExpectedSegments = append(res.ExpectedSegments, downSegName(cfg.AggIndex, i))
		}
	}
	return res
}

func upSegName(j, i int) string   { return fmt.Sprintf("T1->C(%d,%d)", j, i) }
func downSegName(j, i int) string { return fmt.Sprintf("C(%d,%d)->T7", j, i) }

// upstreamSenderID identifies the sender at ToR(p,e) uplink j.
func upstreamSenderID(h, p, e, j int) core.SenderID {
	return core.SenderID(1000 + ((p*h+e)*h + j))
}

// downstreamSenderID identifies the sender at core (j,i).
func downstreamSenderID(h, j, i int) core.SenderID {
	return core.SenderID(2000 + j*h + i)
}

// runLocalizationPass builds the fat-tree, instruments per-core segments,
// optionally injects the fault, replays the workload and returns segments.
// The returned core.Segment list is ordered: upstream (j,i) then downstream
// (j,i), row-major.
func runLocalizationPass(cfg LocalizationConfig, withFault bool) []core.Segment {
	eng := eventsim.New()
	nw := netsim.New(eng)
	tcfg := topo.DefaultConfig()
	tcfg.K = cfg.K
	tcfg.LinkBps = cfg.LinkBps
	tcfg.QueueBytes = cfg.QueueBytes
	ft, err := topo.Build(tcfg, nw)
	if err != nil {
		panic(err)
	}
	h := ft.Half()
	sp, se := cfg.SrcPod, cfg.SrcToR
	q, e0 := cfg.DestPod, cfg.DestToR

	if withFault && cfg.Site != AnomalyNone {
		pod := sp
		if cfg.Site == AnomalyDstAgg {
			pod = q
		}
		agg := ft.Aggs[pod][cfg.AggIndex]
		agg.SetProcDelay(agg.ProcDelay() + cfg.ExtraDelay)
	}

	// Upstream: senders at the source ToR's uplinks, receivers at core
	// ingress. Segment (j,i) covers ToR uplink j -> core (j,i).
	for j := 0; j < h; j++ {
		dsts := make([]packet.Addr, h)
		for i := 0; i < h; i++ {
			dsts[i] = ft.CoreAddr(j, i)
		}
		if _, err := core.AttachSender(ft.ToRUplink(sp, se, j), core.SenderConfig{
			ID:        upstreamSenderID(h, sp, se, j),
			Addr:      ft.ToRAddr(sp, se),
			Receivers: dsts,
			Scheme:    cfg.Scheme,
		}); err != nil {
			panic(err)
		}
	}
	var segments []core.Segment
	for j := 0; j < h; j++ {
		for i := 0; i < h; i++ {
			addr := ft.CoreAddr(j, i)
			rx, err := core.AttachReceiverIngress(ft.Cores[j][i], core.ReceiverConfig{
				Demux:     core.SingleDemux{ID: upstreamSenderID(h, sp, se, j)},
				Accept:    func(p *packet.Packet) bool { return p.Kind == packet.Regular },
				AcceptRef: func(p *packet.Packet) bool { return p.Key.Dst == addr },
			})
			if err != nil {
				panic(err)
			}
			segments = append(segments, core.Segment{Name: upSegName(j, i), Receiver: rx})
		}
	}

	// Downstream: senders at core ports toward the destination pod; one
	// receiver per core stream spanning the destination ToR's host ports,
	// so each segment has its own latency distribution.
	refDst := ft.HostAddr(q, e0, 0)
	var downstream []core.Segment
	for j := 0; j < h; j++ {
		for i := 0; i < h; i++ {
			j, i := j, i
			if _, err := core.AttachSender(ft.CoreDownPort(j, i, q), core.SenderConfig{
				ID:        downstreamSenderID(h, j, i),
				Addr:      ft.CoreAddr(j, i),
				Receivers: []packet.Addr{refDst},
				Scheme:    cfg.Scheme,
			}); err != nil {
				panic(err)
			}
			sid := downstreamSenderID(h, j, i)
			rx, err := core.NewReceiver(core.ReceiverConfig{
				// Reverse-ECMP demux restricted to this stream: packets
				// resolved to other cores are left to their own receivers.
				Demux: core.FuncDemux{
					Label: "reverse-ecmp-" + downSegName(j, i),
					F: func(p *packet.Packet) (core.SenderID, bool) {
						rj, ri, err := ft.ResolveCore(p.Key)
						if err != nil || rj != j || ri != i {
							return 0, false
						}
						return sid, true
					},
				},
				Accept: func(p *packet.Packet) bool { return p.Kind == packet.Regular },
				AcceptRef: func(p *packet.Packet) bool {
					return p.Ref.Sender == sid
				},
			})
			if err != nil {
				panic(err)
			}
			for hh := 0; hh < h; hh++ {
				ft.ToRHostPort(q, e0, hh).OnTxStart(rx.Observe)
			}
			downstream = append(downstream, core.Segment{Name: downSegName(j, i), Receiver: rx})
		}
	}

	// Workload: source ToR's hosts to destination ToR's hosts.
	gcfg := trace.DefaultConfig()
	gcfg.Seed = cfg.Seed
	gcfg.Duration = cfg.Duration
	gcfg.TargetBps = cfg.LoadFrac * float64(h) * cfg.LinkBps
	capFlowLen(&gcfg)
	gen := trace.NewGenerator(gcfg)
	for {
		rec, ok := gen.Next()
		if !ok {
			break
		}
		hash := rec.Key.FastHash()
		sh := int(hash % uint64(h))
		dh := int(hash >> 8 % uint64(h))
		key := rec.Key
		key.Src = ft.HostAddr(sp, se, sh)
		key.Dst = ft.HostAddr(q, e0, dh)
		ft.Hosts[sp][se][sh].AddArrival(netsim.Arrival{At: rec.At, ID: nw.NewPacketID(), Key: key, Size: rec.Size, Kind: packet.Regular})
	}
	eng.Run()

	return append(segments, downstream...)
}

// Render formats the localization scenario: both passes' segments and the
// verdict.
func (r LocalizationResult) Render() string {
	var b strings.Builder
	b.WriteString("== L1: latency anomaly localization across segments ==\n")
	fmt.Fprintf(&b, "fault: %s agg[%d] +%v\n", r.Config.Site, r.Config.AggIndex, r.Config.ExtraDelay)
	fmt.Fprintf(&b, "%-14s %12s %12s\n", "segment", "baseline", "faulty")
	for i := range r.Baseline {
		fmt.Fprintf(&b, "%-14s %12v %12v\n", r.Baseline[i].Name, r.Baseline[i].Mean, r.Faulty[i].Mean)
	}
	if len(r.Anomalies) == 0 {
		b.WriteString("verdict: no anomalies flagged\n")
	}
	for _, a := range r.Anomalies {
		fmt.Fprintf(&b, "verdict: %s\n", a)
	}
	fmt.Fprintf(&b, "localized correctly: %v (expected %v)\n", r.Localized(), r.ExpectedSegments)
	return b.String()
}
