// Command experiments regenerates every table and figure of the paper's
// evaluation (and the repository's ablations) and prints them as text
// tables and CDF renderings.
//
// With -seeds N (N > 1) it instead runs each experiment at N independent
// SplitMix64-derived seeds, fanned across -parallel workers, and reports
// headline metrics as mean ± 95% CI — the statistically rigorous form of
// the same figures.
//
// Usage:
//
//	experiments -all
//	experiments -fig 4a -scale default
//	experiments -fig 5
//	experiments -fig A1
//	experiments -all -seeds 8 -parallel 4
//	experiments -scenario incast -seeds 8
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	rlir "github.com/netmeasure/rlir"
)

// validTargets is every -fig value, in -all order. An unknown -fig exits
// non-zero listing these.
var validTargets = []string{"placement", "scalars", "4a", "4b", "4c", "5", "A1", "A2", "A3", "B1", "L1"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		fig      = flag.String("fig", "", "which result to regenerate: "+strings.Join(validTargets, " "))
		all      = flag.Bool("all", false, "regenerate everything")
		scenName = flag.String("scenario", "", "run a registered scenario from the scenario engine (see cmd/scenario -list)")
		ests     = flag.String("estimators", "", "with -scenario: comma-separated estimator set (rli always included)")
		scale    = flag.String("scale", "default", "small | default | full")
		seed     = flag.Int64("seed", 1, "deterministic base seed")
		seeds    = flag.Int("seeds", 1, "number of independent seeds; > 1 reports mean ± 95% CI")
		parallel = flag.Int("parallel", 0, "max concurrent runs for multi-seed sweeps (0 = GOMAXPROCS)")
		csvDir   = flag.String("csv", "", "also write figure series as CSV files into this directory (single-seed only)")
	)
	flag.Parse()

	sc := pickScale(*scale)
	sc.Seed = *seed
	csvOut = *csvDir
	opts := rlir.MultiOpts{Seeds: *seeds, Workers: *parallel}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["csv"] && *seeds > 1 {
		// The multi-seed harnesses render CI tables, not CDF series; fail
		// loudly rather than silently write nothing.
		log.Fatal("-csv applies to single-seed figure runs only; drop -seeds or -csv")
	}

	if *scenName == "" && *ests != "" {
		log.Fatal("-estimators applies to -scenario runs only")
	}
	if *scenName != "" {
		// Scenarios are sized by their registered spec (or a cmd/scenario
		// -spec file), not by the figure harness's scale; fail loudly
		// rather than silently run something other than what was asked.
		if set["scale"] || set["csv"] {
			log.Fatal("-scale/-csv do not apply to -scenario; size scenarios via their spec (see cmd/scenario)")
		}
		estimators, err := rlir.ParseEstimatorList(*ests)
		if err != nil {
			log.Fatal(err)
		}
		if err := runScenario(*scenName, *seed, set["seed"], *seeds, *parallel, estimators); err != nil {
			log.Fatal(err)
		}
		return
	}

	targets := []string{}
	if *all {
		targets = validTargets
	} else if *fig != "" {
		targets = strings.Split(*fig, ",")
	} else {
		flag.Usage()
		log.Fatal("need -fig, -all or -scenario")
	}

	for _, t := range targets {
		start := time.Now()
		var err error
		if *seeds > 1 {
			err = runMulti(strings.TrimSpace(t), sc, opts)
		} else {
			err = run(strings.TrimSpace(t), sc)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%s done in %v]\n\n", t, time.Since(start).Round(time.Millisecond))
	}
}

// runScenario dispatches the -scenario target onto the scenario engine.
// The spec's registered seed applies unless the -seed flag was explicitly
// passed (haveSeed), so any seed value — including 0 — can be forced.
func runScenario(name string, seed int64, haveSeed bool, seeds, parallel int, estimators []string) error {
	scen, ok := rlir.ScenarioByName(name)
	if !ok {
		return fmt.Errorf("unknown scenario %q (registered: %s)", name, strings.Join(rlir.ScenarioNames(), ", "))
	}
	spec := scen.Spec
	if haveSeed {
		spec.Seed = seed
	}
	if len(estimators) > 0 {
		spec.Deploy.Estimators = estimators
	}
	if seeds > 1 {
		mr, err := rlir.RunScenarioMulti(spec, rlir.MultiOpts{Seeds: seeds, Workers: parallel})
		if err != nil {
			return err
		}
		fmt.Print(mr.Render())
		return nil
	}
	res, err := rlir.RunScenario(spec)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

// unknownTarget is the error an unrecognized -fig value produces: non-zero
// exit, listing every valid target.
func unknownTarget(target string) error {
	return fmt.Errorf("unknown -fig target %q (valid: %s)", target, strings.Join(validTargets, " "))
}

func pickScale(name string) rlir.Scale {
	switch name {
	case "small":
		return rlir.SmallScale()
	case "default":
		return rlir.DefaultScale()
	case "full":
		return rlir.FullScale()
	default:
		log.Fatalf("unknown scale %q", name)
		panic("unreachable")
	}
}

// csvOut, when non-empty, receives figure series as CSV files.
var csvOut string

func emitFigure(f rlir.Figure) {
	fmt.Print(f.Render())
	if csvOut == "" {
		return
	}
	files, err := f.WriteCSV(csvOut)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d CSV series to %s\n", len(files), csvOut)
}

func run(target string, sc rlir.Scale) error {
	switch target {
	case "4a":
		emitFigure(rlir.Fig4a(sc))
	case "4b":
		emitFigure(rlir.Fig4b(sc))
	case "4c":
		emitFigure(rlir.Fig4c(sc))
	case "5":
		r := rlir.Fig5(sc, nil)
		fmt.Print(r.Render())
		if csvOut != "" {
			if _, err := r.WriteCSV(csvOut); err != nil {
				return err
			}
		}
	case "placement":
		return runPlacement()
	case "scalars":
		fmt.Print(rlir.RunScalars(sc).Render())
	case "A1":
		results, err := demuxAblation(demuxSpec(sc.Seed))
		if err != nil {
			return err
		}
		fmt.Print(renderDemuxAblation(results))
	case "A2":
		fmt.Print(rlir.RenderEstimators(rlir.AblationEstimators(sc, 0.8)))
	case "A3":
		fmt.Print(rlir.RenderClocks(rlir.AblationClocks(sc, 0.8)))
	case "B1":
		fmt.Print(rlir.RunBaselines(sc, 0.85).Render())
	case "L1":
		cfg := rlir.DefaultLocalizationConfig()
		cfg.Spec.Seed = sc.Seed
		r, err := rlir.RunLocalization(cfg)
		if err != nil {
			return err
		}
		fmt.Print(r.Render())
	default:
		return unknownTarget(target)
	}
	return nil
}

// runMulti is the multi-seed dispatch: the same targets, re-recorded as
// mean ± CI over the derived seeds.
func runMulti(target string, sc rlir.Scale, opts rlir.MultiOpts) error {
	switch target {
	case "4a":
		fmt.Print(rlir.Fig4aMulti(sc, opts).Render())
	case "4b":
		fmt.Print(rlir.Fig4bMulti(sc, opts).Render())
	case "4c":
		fmt.Print(rlir.Fig4cMulti(sc, opts).Render())
	case "5":
		fmt.Println("fig5 runs single-seed (a within-run differential measurement); rerun without -seeds")
		return run(target, sc)
	case "placement":
		return runPlacement() // exact combinatorics: seed-independent
	case "scalars":
		fmt.Print(rlir.MultiScalars(sc, opts).Render())
	case "A1":
		rows, err := demuxAblationMulti(demuxSpec(sc.Seed), opts)
		if err != nil {
			return err
		}
		fmt.Print(renderDemuxAblationMulti(rows))
	case "A2":
		fmt.Print(rlir.RenderEstimatorsCI(rlir.MultiEstimators(sc, 0.8, opts), opts.Seeds))
	case "A3":
		fmt.Print(rlir.RenderClocksCI(rlir.MultiClocks(sc, 0.8, opts), opts.Seeds))
	case "B1":
		fmt.Print(rlir.MultiBaselines(sc, 0.85, opts).Render())
	case "L1":
		cfg := rlir.DefaultLocalizationConfig()
		cfg.Spec.Seed = sc.Seed
		r, err := rlir.MultiLocalization(cfg, opts)
		if err != nil {
			return err
		}
		fmt.Print(r.Render())
	default:
		return unknownTarget(target)
	}
	return nil
}

func runPlacement() error {
	rows, err := rlir.PlacementTable([]int{4, 8, 16, 32, 48})
	if err != nil {
		return err
	}
	fmt.Println("== §3.1: deployment complexity (measurement instances) ==")
	fmt.Print(rlir.FormatPlacementTable(rows))
	return nil
}
