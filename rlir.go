package rlir

import (
	"net"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/core"
	"github.com/netmeasure/rlir/internal/experiments"
	"github.com/netmeasure/rlir/internal/fleet"
	"github.com/netmeasure/rlir/internal/measure"
	"github.com/netmeasure/rlir/internal/netflow"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/runner"
	"github.com/netmeasure/rlir/internal/scenario"
	"github.com/netmeasure/rlir/internal/service"
	"github.com/netmeasure/rlir/internal/simclock"
	"github.com/netmeasure/rlir/internal/stats"
	"github.com/netmeasure/rlir/internal/swp"
	"github.com/netmeasure/rlir/internal/topo"
	"github.com/netmeasure/rlir/internal/trace"
)

// ---- Packet and flow identity ----

// Addr is an IPv4 address in host byte order.
type Addr = packet.Addr

// Prefix is an IPv4 CIDR prefix.
type Prefix = packet.Prefix

// FlowKey is the comparable 5-tuple identity used for all per-flow state.
type FlowKey = packet.FlowKey

// ParseAddr parses dotted-quad notation.
func ParseAddr(s string) (Addr, error) { return packet.ParseAddr(s) }

// MustParseAddr is ParseAddr that panics on error.
func MustParseAddr(s string) Addr { return packet.MustParseAddr(s) }

// ParsePrefix parses CIDR notation.
func ParsePrefix(s string) (Prefix, error) { return packet.ParsePrefix(s) }

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix { return packet.MustParsePrefix(s) }

// ---- Injection schemes (paper §3.2) ----

// InjectionScheme maps the sender's utilization estimate to a 1-and-n gap.
type InjectionScheme = core.InjectionScheme

// Static is the fixed worst-case 1-and-N scheme.
type Static = core.Static

// Adaptive is RLI's utilization-driven scheme.
type Adaptive = core.Adaptive

// DefaultStatic returns the paper's 1-and-100 configuration.
func DefaultStatic() Static { return core.DefaultStatic() }

// DefaultAdaptive returns the paper's 1-and-10..1-and-300 configuration.
func DefaultAdaptive() Adaptive { return core.DefaultAdaptive() }

// ---- Results ----

// FlowResult is one flow's estimated-vs-true statistics.
type FlowResult = core.FlowResult

// Summary aggregates a result set (median relative error and friends).
type Summary = core.Summary

// Summarize computes a Summary over per-flow results.
func Summarize(results []FlowResult) Summary { return core.Summarize(results) }

// MeanErrCDF builds the CDF of per-flow mean relative errors (Fig 4a form).
func MeanErrCDF(results []FlowResult) *CDF { return core.MeanErrCDF(results) }

// StdErrCDF builds the CDF of per-flow stddev relative errors (Fig 4b form).
func StdErrCDF(results []FlowResult) *CDF { return core.StdErrCDF(results) }

// CDF is an exact empirical distribution over a finite sample.
type CDF = stats.CDF

// Sketch is the bounded-memory log-bucketed quantile sketch carried by
// every flow aggregate: ~1.6% worst-case relative error per quantile,
// at most a few KB per flow, and exact (bit-identical, order-independent)
// merges across instances.
type Sketch = stats.Sketch

// SketchState is a Sketch's portable wire form, carried in query-API
// snapshots; round-trips exactly.
type SketchState = stats.SketchState

// SketchFromState rebuilds a Sketch from its portable state.
func SketchFromState(s SketchState) Sketch { return stats.SketchFromState(s) }

// ---- Clock models ----

// ClockSource converts true simulation time to an instance's local reading.
type ClockSource = simclock.Source

// PerfectClock is exact synchronization (the paper's assumption).
type PerfectClock = simclock.Perfect

// FixedOffsetClock has a constant synchronization error.
type FixedOffsetClock = simclock.FixedOffset

// DriftingClock is a free-running oscillator.
type DriftingClock = simclock.Drifting

// PTPClock is an IEEE 1588-disciplined clock.
type PTPClock = simclock.PTP

// ---- Workload generation ----

// TraceConfig parameterizes the synthetic workload generator that stands in
// for the paper's CAIDA traces.
type TraceConfig = trace.Config

// TraceRec is one generated packet release.
type TraceRec = trace.Rec

// DefaultTraceConfig returns the ~22%-of-1Gbps regular workload.
func DefaultTraceConfig() TraceConfig { return trace.DefaultConfig() }

// NewTraceGenerator streams a deterministic synthetic trace.
func NewTraceGenerator(cfg TraceConfig) *trace.Generator { return trace.NewGenerator(cfg) }

// ---- The tandem experiment (paper Figure 3) ----

// Scale sets experiment magnitude; see SmallScale, DefaultScale, FullScale.
type Scale = experiments.Scale

// SmallScale is CI-sized (sub-second traces).
func SmallScale() Scale { return experiments.SmallScale() }

// DefaultScale runs in seconds on a laptop.
func DefaultScale() Scale { return experiments.DefaultScale() }

// FullScale approximates the paper's 60 s of OC-192.
func FullScale() Scale { return experiments.FullScale() }

// CrossModel selects the cross-traffic model.
type CrossModel = experiments.CrossModel

// Cross-traffic models of §4.1.
const (
	CrossUniform = experiments.CrossUniform
	CrossBursty  = experiments.CrossBursty
	CrossNone    = experiments.CrossNone
)

// TandemConfig is one two-switch (Figure 3) run.
type TandemConfig = experiments.TandemConfig

// TandemResult is its outcome.
type TandemResult = experiments.TandemResult

// RunTandem executes one Figure-3 simulation: regular traffic through an
// instrumented switch, cross traffic merging at the downstream bottleneck,
// per-flow latency estimated across both hops.
func RunTandem(cfg TandemConfig) TandemResult { return experiments.RunTandem(cfg) }

// Estimator variants (ablation A2); Linear is the paper's.
const (
	Linear   = core.Linear
	LeftRef  = core.LeftRef
	RightRef = core.RightRef
	Nearest  = core.Nearest
)

// ---- Placement planning (paper §3.1) ----

// Placement computes deployment-complexity figures for a k-ary fat-tree.
type Placement = topo.Placement

// PlacementRow is one line of the placement table.
type PlacementRow = topo.Row

// PlacementTable computes the §3.1 table for the given arities.
func PlacementTable(ks []int) ([]PlacementRow, error) { return topo.Table(ks) }

// FormatPlacementTable renders the table.
func FormatPlacementTable(rows []PlacementRow) string { return topo.FormatTable(rows) }

// ---- Figures and ablations (paper §4 + DESIGN.md) ----

// Figure is a reproduced figure: labelled CDF series plus notes.
type Figure = experiments.Figure

// Fig4a reproduces Figure 4(a): mean-estimate accuracy CDFs.
func Fig4a(scale Scale) Figure { return experiments.Fig4a(scale) }

// Fig4b reproduces Figure 4(b): stddev-estimate accuracy CDFs.
func Fig4b(scale Scale) Figure { return experiments.Fig4b(scale) }

// Fig4c reproduces Figure 4(c): bursty vs random cross traffic.
func Fig4c(scale Scale) Figure { return experiments.Fig4c(scale) }

// Fig5Result is the reproduced Figure 5.
type Fig5Result = experiments.Fig5Result

// Fig5 reproduces Figure 5: reference-packet interference with regular
// traffic loss across a utilization sweep (nil utils uses the paper's
// 0.82..0.98 range).
func Fig5(scale Scale, utils []float64) Fig5Result { return experiments.Fig5(scale, utils) }

// Scalars reproduces the §4.2 quoted numbers.
type Scalars = experiments.Scalars

// RunScalars measures them.
func RunScalars(scale Scale) Scalars { return experiments.RunScalars(scale) }

// EstimatorRow is one line of ablation A2.
type EstimatorRow = experiments.EstimatorRow

// AblationEstimators compares interpolation variants (A2).
func AblationEstimators(scale Scale, util float64) []EstimatorRow {
	return experiments.AblationEstimators(scale, util)
}

// RenderEstimators formats A2.
func RenderEstimators(rows []EstimatorRow) string { return experiments.RenderEstimators(rows) }

// ClockRow is one line of ablation A3.
type ClockRow = experiments.ClockRow

// AblationClocks sweeps clock imperfections (A3).
func AblationClocks(scale Scale, util float64) []ClockRow {
	return experiments.AblationClocks(scale, util)
}

// RenderClocks formats A3.
func RenderClocks(rows []ClockRow) string { return experiments.RenderClocks(rows) }

// BaselineResult is B1: RLIR vs LDA vs Multiflow.
type BaselineResult = experiments.BaselineResult

// RunBaselines co-locates RLIR, LDA and Multiflow on one run (B1).
func RunBaselines(scale Scale, util float64) BaselineResult {
	return experiments.RunBaselines(scale, util)
}

// ---- Localization (DESIGN.md L1, the paper's Figure 1 narrative) ----

// LocalizationConfig is L1: a fat-tree scenario spec carrying the fault,
// plus the localizer's anomaly ratio.
type LocalizationConfig = scenario.LocalizationConfig

// LocalizationResult reports calibration, fault run and verdict.
type LocalizationResult = scenario.Localization

// DefaultLocalizationConfig returns the k=4 T1->T7 scenario with a fault at
// the destination pod's aggregation layer.
func DefaultLocalizationConfig() LocalizationConfig {
	return scenario.DefaultLocalizationConfig()
}

// RunLocalization measures per-router segments of one ToR-to-ToR path twice
// (healthy, then with the spec's faults) and reports which segments the
// localizer flags.
func RunLocalization(cfg LocalizationConfig) (*LocalizationResult, error) {
	return scenario.Localize(cfg)
}

// ---- Multi-seed sweeps (the concurrent measurement plane) ----
//
// Every figure and ablation above is a single-seed point estimate. The
// Multi* variants fan N independent simulations (seeds derived via
// SplitMix64) across workers and report each headline metric as
// mean ± 95% CI, merging per-run flow telemetry through the
// internal/collector plane.

// MultiOpts sizes a multi-seed sweep (Seeds default 8, Workers default
// GOMAXPROCS); figures, L1 and scenarios share it.
type MultiOpts = runner.MultiOpts

// MetricCI is one metric's across-seed mean ± 95% CI.
type MetricCI = stats.MetricCI

// DeriveSeeds returns n independent, reproducible seeds derived from base
// with SplitMix64 — use it instead of base+i arithmetic whenever seeding
// separate runs.
func DeriveSeeds(base int64, n int) []int64 { return trace.DeriveSeeds(base, n) }

// MultiTandemResult aggregates one tandem configuration across seeds.
type MultiTandemResult = experiments.MultiTandemResult

// MultiTandem runs one tandem configuration at N derived seeds in parallel.
func MultiTandem(cfg TandemConfig, opts MultiOpts) MultiTandemResult {
	return experiments.MultiTandem(cfg, opts)
}

// MultiFigure is a figure re-recorded as across-seed statistics.
type MultiFigure = experiments.MultiFigure

// Fig4aMulti re-records Figure 4(a) as mean ± CI across seeds.
func Fig4aMulti(scale Scale, opts MultiOpts) MultiFigure { return experiments.Fig4aMulti(scale, opts) }

// Fig4bMulti re-records Figure 4(b) as mean ± CI across seeds.
func Fig4bMulti(scale Scale, opts MultiOpts) MultiFigure { return experiments.Fig4bMulti(scale, opts) }

// Fig4cMulti re-records Figure 4(c) as mean ± CI across seeds.
func Fig4cMulti(scale Scale, opts MultiOpts) MultiFigure { return experiments.Fig4cMulti(scale, opts) }

// ScalarsCI re-records the §4.2 scalars across seeds.
type ScalarsCI = experiments.ScalarsCI

// MultiScalars measures the §4.2 scalar table at every derived seed.
func MultiScalars(scale Scale, opts MultiOpts) ScalarsCI {
	return experiments.MultiScalars(scale, opts)
}

// EstimatorCI is one line of the multi-seed A2 table.
type EstimatorCI = experiments.EstimatorCI

// MultiEstimators re-records ablation A2 across seeds.
func MultiEstimators(scale Scale, util float64, opts MultiOpts) []EstimatorCI {
	return experiments.MultiEstimators(scale, util, opts)
}

// RenderEstimatorsCI formats multi-seed A2.
func RenderEstimatorsCI(rows []EstimatorCI, seeds int) string {
	return experiments.RenderEstimatorsCI(rows, seeds)
}

// ClockCI is one line of the multi-seed A3 table.
type ClockCI = experiments.ClockCI

// MultiClocks re-records ablation A3 across seeds.
func MultiClocks(scale Scale, util float64, opts MultiOpts) []ClockCI {
	return experiments.MultiClocks(scale, util, opts)
}

// RenderClocksCI formats multi-seed A3.
func RenderClocksCI(rows []ClockCI, seeds int) string { return experiments.RenderClocksCI(rows, seeds) }

// BaselineCI re-records B1 across seeds.
type BaselineCI = experiments.BaselineCI

// MultiBaselines re-records ablation B1 across seeds.
func MultiBaselines(scale Scale, util float64, opts MultiOpts) BaselineCI {
	return experiments.MultiBaselines(scale, util, opts)
}

// LocalizationCI re-records L1 across seeds.
type LocalizationCI = scenario.LocalizationCI

// MultiLocalization re-records the L1 scenario across seeds.
func MultiLocalization(cfg LocalizationConfig, opts MultiOpts) (*LocalizationCI, error) {
	return scenario.MultiLocalize(cfg, opts)
}

// ---- Unified estimator layer (internal/measure) ----
//
// Every latency-measurement mechanism — RLI interpolation, the LDA
// aggregate sketch, NetFlow-style packet sampling, the Multiflow
// two-timestamp estimator — implements one pluggable API: a zero-alloc
// per-packet Tap plus a Finalize returning a Report with per-flow and
// per-router estimates and overhead accounting. A scenario spec declares
// its estimator set and the engine attaches all of them to the same single
// simulation pass through a shared tap dispatch, scoring every mechanism
// against shared ground truth in one comparison table.

// MeasureEstimator is one measurement mechanism attached to a segment.
type MeasureEstimator = measure.Estimator

// MeasureConfig parameterizes estimator construction.
type MeasureConfig = measure.Config

// MeasureReport is one estimator's deliverable for a finished run.
type MeasureReport = measure.Report

// MeasureOverhead accounts a mechanism's cost: injected wire bytes vs
// sampled collection bytes.
type MeasureOverhead = measure.Overhead

// MeasureTruth is the harness-owned ground-truth table estimators are
// scored against.
type MeasureTruth = measure.Truth

// MeasureDispatch is the shared per-packet tap fan-out.
type MeasureDispatch = measure.Dispatch

// EstimatorComparison is one row of the estimator comparison table.
type EstimatorComparison = measure.Comparison

// EstimatorNames returns the registered estimator names, "rli" first.
func EstimatorNames() []string { return measure.Names() }

// EstimatorRegistered reports whether name is a registered estimator.
func EstimatorRegistered(name string) bool { return measure.Registered(name) }

// ParseEstimatorList splits and validates a comma-separated estimator
// list (the CLI -estimators flag format); unknown names fail listing the
// registered ones.
func ParseEstimatorList(s string) ([]string, error) { return measure.ParseList(s) }

// NewEstimator builds a registered estimator by name.
func NewEstimator(name string, cfg MeasureConfig) (MeasureEstimator, error) {
	return measure.New(name, cfg)
}

// NewMeasureTruth returns an empty ground-truth table.
func NewMeasureTruth() *MeasureTruth { return measure.NewTruth() }

// NewMeasureDispatch builds the shared tap for a measured segment.
func NewMeasureDispatch(truth *MeasureTruth, ests ...MeasureEstimator) *MeasureDispatch {
	return measure.NewDispatch(truth, ests...)
}

// CompareEstimators scores reports against truth, one comparison row per
// report.
func CompareEstimators(truth *MeasureTruth, reports ...MeasureReport) []EstimatorComparison {
	return measure.Compare(truth, reports...)
}

// ReportFromFlowResults builds an RLI-shaped report from per-flow receiver
// results — for harnesses that own their receiver wiring (RunTandem).
func ReportFromFlowResults(name, router string, results []FlowResult, overhead MeasureOverhead) MeasureReport {
	return measure.ReportFromFlowResults(name, router, results, overhead)
}

// DefaultRefSize is the reference packet frame size in bytes (Ethernet
// minimum — the per-probe unit of RLI's injected-bytes overhead).
const DefaultRefSize = core.DefaultRefSize

// RenderEstimatorComparison formats the comparison table.
func RenderEstimatorComparison(rows []EstimatorComparison) string {
	return measure.RenderComparisons(rows)
}

// ---- Scenario engine (declarative network-wide workloads) ----
//
// A Scenario is a versioned declarative spec — topology, workload mix,
// scheduled fault injections, RLIR deployment — composed over the whole
// substrate by one engine, plus an invariant check that makes the registry
// a correctness harness. cmd/scenario is the CLI front-end; the CI
// scenario-matrix job runs every registered scenario.

// Scenario is one registered named scenario.
type Scenario = scenario.Scenario

// ScenarioSpec is the declarative scenario description.
type ScenarioSpec = scenario.Spec

// ScenarioResult is one scenario run's outcome.
type ScenarioResult = scenario.Result

// ScenarioTelemetrySpec models telemetry-export loss applied to a finished
// run's estimator reports (ScenarioSpec.Telemetry): export frames of
// FrameRecords per-flow records are each dropped with probability LossRate
// before scoring.
type ScenarioTelemetrySpec = scenario.TelemetrySpec

// ScenarioTelemetryReport is a run's estimator accuracy under telemetry
// loss: one lossless-vs-degraded row per mechanism (ScenarioResult.Telemetry).
type ScenarioTelemetryReport = scenario.TelemetryReport

// ScenarioTelemetryRow is one estimator's lossless-vs-degraded comparison
// under telemetry loss.
type ScenarioTelemetryRow = scenario.TelemetryRow

// ScenarioMultiResult aggregates one scenario across seeds.
type ScenarioMultiResult = scenario.MultiResult

// Scenarios returns every registered scenario in name order.
func Scenarios() []Scenario { return scenario.All() }

// ScenarioNames returns the registered scenario names, sorted.
func ScenarioNames() []string { return scenario.Names() }

// ScenarioByName returns one registered scenario.
func ScenarioByName(name string) (Scenario, bool) { return scenario.Get(name) }

// ScenarioEngineSequential and ScenarioEngineParallel are the valid
// ScenarioSpec.Engine values: the single-heap event engine versus the
// conservative parallel engine (fat-tree only; bit-identical results).
const (
	ScenarioEngineSequential = scenario.EngineSequential
	ScenarioEngineParallel   = scenario.EngineParallel
)

// DefaultScenarioSpec returns a valid fat-tree spec to build variations
// from.
func DefaultScenarioSpec() ScenarioSpec { return scenario.DefaultSpec() }

// DecodeScenarioSpec parses and validates a JSON scenario spec.
func DecodeScenarioSpec(data []byte) (ScenarioSpec, error) { return scenario.DecodeJSON(data) }

// RunScenario executes one scenario spec at its spec seed.
func RunScenario(spec ScenarioSpec) (*ScenarioResult, error) { return scenario.Run(spec) }

// RunScenarioSeed executes one scenario spec at an explicit seed.
func RunScenarioSeed(spec ScenarioSpec, seed int64) (*ScenarioResult, error) {
	return scenario.RunSeed(spec, seed)
}

// RunScenarioMulti sweeps one scenario spec across derived seeds in
// parallel.
func RunScenarioMulti(spec ScenarioSpec, opts MultiOpts) (*ScenarioMultiResult, error) {
	return scenario.RunMulti(spec, opts)
}

// ---- Adversarial & trace-driven scenarios ----
//
// Three spec extensions stress measurement trustworthiness rather than
// accuracy: a compromised switch that delays only the packets it predicts
// won't be measured (countered by secret-key hash sampling), replay of a
// recorded per-link delay/loss time series, and RepFlow-style flow
// replication across distinct ECMP paths. The registered scenarios
// adversarial-delay, trace-replay and repflow exercise them under CI.

// ScenarioAdversarySpec puts a delay-gaming compromised switch into a run
// (ScenarioSpec.Adversary): it adds Extra hidden delay to every regular
// packet in [Start, End) except reference packets and packets a 1-in-
// PredictRate periodic sampler would measure. Estimators keyed on a secret
// the switch cannot see still expose the delay; predictable ones are blinded.
type ScenarioAdversarySpec = scenario.AdversarySpec

// ScenarioDetectionThreshold is the exposure fraction at which an estimator
// counts as having detected hidden adversarial delay.
const ScenarioDetectionThreshold = scenario.DetectionThreshold

// ScenarioDetectionReport scores every estimator on detecting the hidden
// delay — a paired clean run at the same seed provides the baseline
// (ScenarioResult.Detection).
type ScenarioDetectionReport = scenario.DetectionReport

// ScenarioDetectionRow is one estimator's clean-vs-adversarial aggregate
// shift and detection verdict.
type ScenarioDetectionRow = scenario.DetectionRow

// ScenarioDetectionCI is one estimator's across-seed detection fold: mean
// exposure and the fraction of seeds on which it detected the adversary.
type ScenarioDetectionCI = scenario.DetectionCI

// ScenarioLinkTraceSpec replays a recorded per-link delay/loss time series
// on one core down-link (ScenarioSpec.LinkTrace).
type ScenarioLinkTraceSpec = scenario.LinkTraceSpec

// ScenarioLinkTraceSampleSpec is one inline link-trace row in spec form.
type ScenarioLinkTraceSampleSpec = scenario.LinkTraceSampleSpec

// ScenarioLinkTraceReport summarizes a replayed link trace's effect on the
// run (ScenarioResult.LinkTrace).
type ScenarioLinkTraceReport = scenario.LinkTraceReport

// ScenarioRepFlowReport is the flow-replication outcome: per-pair primary
// vs replica vs first-arrival delay (ScenarioResult.RepFlow).
type ScenarioRepFlowReport = scenario.RepFlowReport

// LinkTrace is a parsed per-link delay/loss time series: a step function
// over offsets from trace start, replayed deterministically by the
// simulator. The zero value is the identity emulator.
type LinkTrace = trace.LinkTrace

// LinkSample is one link-trace row: extra delay and drop probability in
// effect from offset At until the next row.
type LinkSample = trace.LinkSample

// LinkTraceConfig parameterizes synthetic link-trace generation
// (cmd/tracegen -emit link).
type LinkTraceConfig = trace.LinkTraceConfig

// LinkTraceVersion is the link-trace file format version ParseLinkTrace
// accepts.
const LinkTraceVersion = trace.LinkTraceVersion

// ParseLinkTrace parses a link trace in either tracegen-producible encoding
// (JSON sniffed by its leading '{', CSV otherwise). Malformed input is an
// error naming the offending row — never a panic.
func ParseLinkTrace(data []byte) (*LinkTrace, error) { return trace.ParseLinkTrace(data) }

// NewLinkTrace builds a link trace from in-memory rows with the same
// validation as the file parser.
func NewLinkTrace(samples []LinkSample) (*LinkTrace, error) { return trace.NewLinkTrace(samples) }

// GenLinkTrace synthesizes a deterministic link trace from the config — the
// stand-in for a recorded link time series.
func GenLinkTrace(c LinkTraceConfig) (*LinkTrace, error) { return trace.GenLinkTrace(c) }

// ShouldSample is the secret-key sampling decision: whether the holder of
// key measures packet id at a 1-in-rate target. It is uniform over the ID
// space and unpredictable without the key — the property that defeats the
// delay-gaming switch (the hash-sample estimator is its registry form).
func ShouldSample(key, id, rate uint64) bool { return measure.ShouldSample(key, id, rate) }

// PredictPeriodic is the adversary's oracle against the periodic baseline:
// it reproduces the 1-in-rate periodic sampler's decision from the packet
// header alone, which is exactly why that baseline is gameable.
func PredictPeriodic(id uint64, rate int) bool { return measure.PredictPeriodic(id, rate) }

// ---- Measurement service (internal/service, cmd/rlird) ----
//
// The long-lived streaming form of the collection tier: routers (or
// cmd/loadgen replaying a scenario trace) stream collector wire frames over
// TCP/Unix sockets into a sharded collector, and operators query per-flow
// aggregates, per-router aggregates, the streaming estimator comparison,
// health and Prometheus-style metrics over HTTP. Streamed aggregates are
// bit-identical to the batch engine's for the same sample stream.

// ServiceConfig addresses and sizes the measurement service.
type ServiceConfig = service.Config

// MeasurementService is a running rlird instance.
type MeasurementService = service.Server

// ServiceClient is an exporter-side connection streaming wire frames into a
// service.
type ServiceClient = service.Client

// FlowTableRow is one /flows row of the service's HTTP API.
type FlowTableRow = service.FlowJSON

// RollupTable is the service's /rollup response: the flow-class and
// router aggregation tiers below the live flow table, plus the eviction
// and expiry accounting that filled them (memory-bounded mode).
type RollupTable = service.RollupJSON

// NewMeasurementService starts a service (listeners, collector shards,
// query API). Stop it with Shutdown.
func NewMeasurementService(cfg ServiceConfig) (*MeasurementService, error) { return service.New(cfg) }

// LoadServiceConfig reads a JSON service config file (cmd/rlird -config).
func LoadServiceConfig(path string) (ServiceConfig, error) { return service.LoadConfig(path) }

// DialService connects a client to a service ingest listener ("tcp" or
// "unix").
func DialService(network, addr string, batch int) (*ServiceClient, error) {
	return service.Dial(network, addr, batch)
}

// NewServiceClient wraps an established connection as a service client.
func NewServiceClient(conn net.Conn, batch int) *ServiceClient {
	return service.NewClient(conn, batch)
}

// ServiceDialOptions configures DialServiceWith: bounded connect attempts
// with exponential backoff and jitter, and optionally the reliable
// (sliding-window) framing with a seeded loss model for soaks.
type ServiceDialOptions = service.DialOptions

// TransportConfig tunes a reliable export connection: window size, segment
// payload bound, retransmit timeout and backoff, retry budget.
type TransportConfig = swp.Config

// TransportImpairment is a seeded loss model (drop/duplicate/reorder/delay
// probabilities) applied to a reliable connection's outbound segments —
// cmd/loadgen's -loss soak.
type TransportImpairment = swp.ImpairConfig

// TransportSenderStats counts a reliable sender's first transmissions,
// retransmits, timeouts and acks.
type TransportSenderStats = swp.SenderStats

// DialServiceWith connects a client to a service ingest listener per o,
// retrying failed dials with exponential backoff before giving up.
func DialServiceWith(o ServiceDialOptions) (*ServiceClient, error) {
	return service.DialWith(o)
}

// CollectorSample is one exported per-packet latency estimate (the wire
// unit RLI receivers stream to the collection tier).
type CollectorSample = collector.Sample

// NetFlowRecord is one exported flow record.
type NetFlowRecord = netflow.Record

// FlowAggregate is one flow's merged collector state.
type FlowAggregate = collector.FlowAgg

// ScenarioTrace is a captured scenario export stream: the replay unit of
// cmd/loadgen and the service equivalence tests.
type ScenarioTrace = scenario.Trace

// ExportScenarioTrace runs a scenario once and captures the samples and
// NetFlow records its instruments exported, alongside the normal result.
func ExportScenarioTrace(spec ScenarioSpec, seed int64) (*ScenarioTrace, error) {
	return scenario.Export(spec, seed)
}

// CompareStreamedFlows scores a collector flow table against the ground
// truth it carries in-band — the streaming counterpart of CompareEstimators.
func CompareStreamedFlows(name string, aggs []FlowAggregate) EstimatorComparison {
	return measure.CompareFlowAggs(name, aggs)
}

// Pacer is a wall-clock token bucket for replaying traffic at a target
// rate.
type Pacer = runner.Pacer

// NewPacer creates a pacer admitting rate units/second (rate <= 0 returns
// the nil, unlimited pacer).
func NewPacer(rate float64) *Pacer { return runner.NewPacer(rate) }

// ---- Distributed collection tier (internal/fleet, cmd/rlirfleet) ----
//
// A fleet is N rlird instances behind one scatter-gather query front-end.
// Exporters shard their stream with FleetRouter — every flow's traffic
// lands wholly on one instance (consistent flow-key hashing), so merging
// the instances' raw snapshots reproduces the single-node flow table
// bit-for-bit. FleetFrontend serves the same HTTP query API as a single
// rlird, answered for the whole fleet, degrading gracefully when
// instances drop out.

// FleetRouter shards an export stream across N rlird endpoints by flow
// key, with per-endpoint connection pools, reconnect-with-backoff and
// delivery counters.
type FleetRouter = fleet.Router

// FleetRouterConfig configures a FleetRouter: endpoints, connections per
// endpoint, batch/queue bounds and the redial budget.
type FleetRouterConfig = fleet.Config

// FleetEndpointStats is one endpoint's delivery counters.
type FleetEndpointStats = fleet.EndpointStats

// FleetSink is one wire connection the router shards onto (ServiceClient
// implements it).
type FleetSink = fleet.Sink

// FleetDialFunc opens the router's connections; wrap DialServiceWith to
// choose raw or reliable framing.
type FleetDialFunc = fleet.DialFunc

// FleetFrontend scatter-gathers a fleet's query API with exact merging.
type FleetFrontend = fleet.Frontend

// FleetFrontendConfig configures a FleetFrontend: instance base URLs and
// the fan-out timeout.
type FleetFrontendConfig = fleet.FrontendConfig

// FleetHealth is the front-end's aggregate /healthz response.
type FleetHealth = fleet.HealthJSON

// FleetInstanceHealth is one instance's row in the fleet health report.
type FleetInstanceHealth = fleet.InstanceHealth

// ScenarioFleetSpec partitions a scenario's collected stream across an
// in-process fleet (ScenarioSpec.Fleet), optionally killing one instance.
type ScenarioFleetSpec = scenario.FleetSpec

// ScenarioFleetReport is a run's distributed-collection outcome: the
// exact-merge proof plus per-estimator accuracy under instance loss
// (ScenarioResult.FleetReport).
type ScenarioFleetReport = scenario.FleetReport

// ScenarioFleetRow is one estimator scored before and after an instance
// loss.
type ScenarioFleetRow = scenario.FleetEstimatorRow

// FleetPartition returns which of n instances owns a flow — the consistent
// assignment FleetRouter, the scenario fleet layer and cmd/loadgen share.
func FleetPartition(key FlowKey, n int) int { return fleet.Partition(key, n) }

// FleetSinkIndex maps a flow onto the (endpoint, connection) grid; with one
// endpoint it reduces to the per-connection split loadgen historically used.
func FleetSinkIndex(key FlowKey, endpoints, connsPerEndpoint int) (endpoint, conn int) {
	return fleet.SinkIndex(key, endpoints, connsPerEndpoint)
}

// NewFleetRouter validates the config, dials the whole connection grid
// eagerly and starts the per-connection senders.
func NewFleetRouter(cfg FleetRouterConfig) (*FleetRouter, error) { return fleet.NewRouter(cfg) }

// NewFleetFrontend validates the instance URLs and builds the
// scatter-gather front-end (serve its Handler over HTTP).
func NewFleetFrontend(cfg FleetFrontendConfig) (*FleetFrontend, error) {
	return fleet.NewFrontend(cfg)
}

// ---- Convenience ----

// Microseconds converts a duration to float64 microseconds, the unit the
// paper quotes latencies in.
func Microseconds(d time.Duration) float64 {
	return float64(d) / float64(time.Microsecond)
}
