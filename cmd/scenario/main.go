// Command scenario is the CLI front-end of the declarative scenario engine:
// it lists the registry, runs named scenarios (single- or multi-seed, with
// or without their invariant checks), runs ad-hoc JSON specs, and prints
// spec templates to build new scenarios from.
//
// Usage:
//
//	scenario -list                 # registry with what each scenario stresses
//	scenario -list -json           # name array (the CI scenario-matrix input)
//	scenario -list-estimators      # registered measurement estimators
//	scenario -list-estimators -json  # name array (the CI estimator-matrix input)
//	scenario -run incast -check    # run one scenario, enforce its invariant
//	scenario -run incast -seeds 8 -parallel 4
//	scenario -run incast -estimators rli,lda   # override the comparison set
//	scenario -run telemetry-loss -telemetry-loss 0.2  # override the export loss rate
//	scenario -run trace-replay -link-trace link.json  # replay a recorded link trace file
//	scenario -run incast -engine parallel          # conservative parallel engine
//	scenario -run incast -engine parallel -partitions 2
//	scenario -describe incast      # print the spec as JSON
//	scenario -spec my.json -seed 7 # run an ad-hoc spec file
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	rlir "github.com/netmeasure/rlir"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scenario:", err)
		os.Exit(1)
	}
}

// options is the parsed command line.
type options struct {
	list          bool
	listEsts      bool
	jsonOut       bool
	runName       string
	describe      string
	specFile      string
	check         bool
	seed          int64
	seeds         int
	parallel      int
	estimators    []string
	telemetryLoss float64
	linkTrace     string
	engine        string
	partitions    int
}

// parseArgs parses the command line into options, validating the
// combination. Split from run so tests can exercise the flag surface
// without executing simulations.
func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.BoolVar(&o.list, "list", false, "list registered scenarios")
	fs.BoolVar(&o.listEsts, "list-estimators", false, "list registered measurement estimators")
	fs.BoolVar(&o.jsonOut, "json", false, "with -list/-list-estimators: print names as a JSON array")
	fs.StringVar(&o.runName, "run", "", "run a registered scenario by name")
	fs.StringVar(&o.describe, "describe", "", "print a registered scenario's spec as JSON")
	fs.StringVar(&o.specFile, "spec", "", "run an ad-hoc spec from a JSON file")
	fs.BoolVar(&o.check, "check", false, "apply the scenario's invariant; non-zero exit on violation")
	fs.Int64Var(&o.seed, "seed", 0, "override the spec seed (0 keeps the spec's)")
	fs.IntVar(&o.seeds, "seeds", 1, "number of independent derived seeds; > 1 reports mean ± 95% CI")
	fs.IntVar(&o.parallel, "parallel", 0, "max concurrent runs for multi-seed sweeps (0 = GOMAXPROCS)")
	ests := fs.String("estimators", "", "comma-separated estimator set for -run/-spec (rli is always included; empty keeps the spec's)")
	fs.Float64Var(&o.telemetryLoss, "telemetry-loss", -1, "override (or enable) the spec's telemetry export loss rate in [0, 1) for -run/-spec (-1 keeps the spec's)")
	fs.StringVar(&o.linkTrace, "link-trace", "", "replay a recorded link trace file (JSON or CSV, see cmd/tracegen -emit link) on a core down-link for -run/-spec (replaces the spec's inline rows)")
	fs.StringVar(&o.engine, "engine", "", "event engine for -run/-spec: sequential | parallel (empty keeps the spec's)")
	fs.IntVar(&o.partitions, "partitions", 0, "LP count for -engine parallel (0 = one per pod + core partition)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	modes := 0
	for _, on := range []bool{o.list, o.listEsts, o.runName != "", o.describe != "", o.specFile != ""} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		return o, fmt.Errorf("need exactly one of -list, -list-estimators, -run, -describe, -spec")
	}
	if o.seeds < 1 {
		return o, fmt.Errorf("-seeds %d < 1", o.seeds)
	}
	if o.check && o.specFile != "" {
		return o, fmt.Errorf("-check needs a registered scenario (ad-hoc specs carry no invariant)")
	}
	if o.telemetryLoss >= 0 {
		if o.runName == "" && o.specFile == "" {
			return o, fmt.Errorf("-telemetry-loss applies to -run/-spec")
		}
		if o.telemetryLoss >= 1 {
			return o, fmt.Errorf("-telemetry-loss %v outside [0, 1)", o.telemetryLoss)
		}
	}
	if o.linkTrace != "" && o.runName == "" && o.specFile == "" {
		return o, fmt.Errorf("-link-trace applies to -run/-spec")
	}
	switch o.engine {
	case "", rlir.ScenarioEngineSequential, rlir.ScenarioEngineParallel:
	default:
		return o, fmt.Errorf("unknown -engine %q (valid: %s, %s)", o.engine,
			rlir.ScenarioEngineSequential, rlir.ScenarioEngineParallel)
	}
	if o.engine != "" && o.runName == "" && o.specFile == "" {
		return o, fmt.Errorf("-engine applies to -run/-spec")
	}
	if o.partitions != 0 && o.engine != rlir.ScenarioEngineParallel {
		return o, fmt.Errorf("-partitions needs -engine parallel")
	}
	if o.partitions < 0 {
		return o, fmt.Errorf("-partitions %d < 0", o.partitions)
	}
	if *ests != "" {
		if o.runName == "" && o.specFile == "" {
			return o, fmt.Errorf("-estimators applies to -run/-spec")
		}
		list, err := rlir.ParseEstimatorList(*ests)
		if err != nil {
			return o, err
		}
		o.estimators = list
	}
	return o, nil
}

func run(args []string, out io.Writer) error {
	o, err := parseArgs(args)
	if err != nil {
		return err
	}
	switch {
	case o.list:
		return list(o, out)
	case o.listEsts:
		return listEstimators(o, out)
	case o.describe != "":
		sc, ok := rlir.ScenarioByName(o.describe)
		if !ok {
			return unknownScenario(o.describe)
		}
		data, err := sc.Spec.EncodeJSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(data))
		return nil
	case o.runName != "":
		sc, ok := rlir.ScenarioByName(o.runName)
		if !ok {
			return unknownScenario(o.runName)
		}
		return execute(o, sc.Spec, sc.Check, out)
	default:
		data, err := os.ReadFile(o.specFile)
		if err != nil {
			return err
		}
		spec, err := rlir.DecodeScenarioSpec(data)
		if err != nil {
			return err
		}
		return execute(o, spec, nil, out)
	}
}

func list(o options, out io.Writer) error {
	if o.jsonOut {
		data, err := json.Marshal(rlir.ScenarioNames())
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(data))
		return nil
	}
	for _, sc := range rlir.Scenarios() {
		fmt.Fprintf(out, "%-18s %s\n%-18s invariant: %s\n", sc.Name, sc.Stresses, "", sc.Invariant)
	}
	return nil
}

// listEstimators prints the measure registry — the CI estimator-matrix
// input in -json form.
func listEstimators(o options, out io.Writer) error {
	names := rlir.EstimatorNames()
	if o.jsonOut {
		data, err := json.Marshal(names)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, string(data))
		return nil
	}
	for _, n := range names {
		fmt.Fprintln(out, n)
	}
	return nil
}

// execute runs one spec (optionally checked) single- or multi-seed.
func execute(o options, spec rlir.ScenarioSpec, check func(*rlir.ScenarioResult) error, out io.Writer) error {
	if o.seed != 0 {
		spec.Seed = o.seed
	}
	if o.engine != "" {
		spec.Engine = o.engine
		spec.Partitions = o.partitions
		if err := spec.Validate(); err != nil {
			return err
		}
	}
	if len(o.estimators) > 0 {
		spec.Deploy.Estimators = o.estimators
	}
	if o.telemetryLoss >= 0 {
		t := rlir.ScenarioTelemetrySpec{LossRate: o.telemetryLoss}
		if spec.Telemetry != nil {
			t = *spec.Telemetry
			t.LossRate = o.telemetryLoss
		}
		spec.Telemetry = &t
	}
	if o.linkTrace != "" {
		if err := applyLinkTrace(&spec, o.linkTrace); err != nil {
			return err
		}
	}
	if o.seeds > 1 {
		mr, err := rlir.RunScenarioMulti(spec, rlir.MultiOpts{Seeds: o.seeds, Workers: o.parallel})
		if err != nil {
			return err
		}
		fmt.Fprint(out, mr.Render())
		if o.check && check != nil {
			if err := mr.CheckAll(check); err != nil {
				return fmt.Errorf("invariant violated: %w", err)
			}
			fmt.Fprintf(out, "invariant held on all %d seeds\n", o.seeds)
		}
		return nil
	}
	res, err := rlir.RunScenario(spec)
	if err != nil {
		return err
	}
	fmt.Fprint(out, res.Render())
	if o.check && check != nil {
		if err := check(res); err != nil {
			return fmt.Errorf("invariant violated: %w", err)
		}
		fmt.Fprintln(out, "invariant held")
	}
	return nil
}

// applyLinkTrace loads a recorded link trace file and replays it in spec:
// the spec's own link addressing is kept when it already carries a
// LinkTrace; otherwise the trace lands on core (0,0)'s down-link to the
// last pod (the converging destination the registered scenarios monitor).
func applyLinkTrace(spec *rlir.ScenarioSpec, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("-link-trace: %w", err)
	}
	lt, err := rlir.ParseLinkTrace(data)
	if err != nil {
		return fmt.Errorf("-link-trace %s: %w", path, err)
	}
	l := rlir.ScenarioLinkTraceSpec{DownPod: spec.Topology.K - 1}
	if spec.LinkTrace != nil {
		l = *spec.LinkTrace
	}
	l.Samples = make([]rlir.ScenarioLinkTraceSampleSpec, len(lt.Samples))
	for i, s := range lt.Samples {
		l.Samples[i] = rlir.ScenarioLinkTraceSampleSpec{T: s.At, Delay: s.Delay, Loss: s.Loss}
	}
	spec.LinkTrace = &l
	return spec.Validate()
}

func unknownScenario(name string) error {
	return fmt.Errorf("unknown scenario %q (registered: %s)", name, strings.Join(rlir.ScenarioNames(), ", "))
}
