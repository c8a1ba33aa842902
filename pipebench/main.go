// Command pipebench is the repository's pipeline benchmark. It drives the
// measurement system end to end through its public Go API — the fat-tree
// scenario engine, rlird instances on loopback TCP, the fleet router and
// the fleet query front-end over loopback HTTP — and prints one JSON result
// line.
//
//	go run . --workload sim-fattree --seed 1 --seconds 20 --trace 0
//
// Workloads are sim-fattree, ingest-replay and query-mixed (see README.md).
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) reports the per-layer metrics: span timings at the layer
// boundaries, CPU-profile shares by package, and the tracing overhead.
// Reported timings are in host time: wall-clock time less the share of
// the machine's CPU time stolen by the hypervisor (see hostclock.go).
// A failed correctness check prints a result with "correct": false and
// exits 1; a usage or environment error exits 2 without a result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is one run's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansOut string
	// tr and prof are set on traced runs only.
	tr   *tracer
	prof *cpuProfile
}

// setupReps is how many times the run sets up: setupRepeats times
// untraced (setup_s is the median), once traced.
func (o options) setupReps() int {
	if o.trace {
		return 1
	}
	return setupRepeats
}

// stageSeconds is how long an untraced run measures a stage: ownShare of
// --seconds for the workload's own stage, probeShare for each other one.
func (o options) stageSeconds(own bool) float64 {
	if own {
		return o.seconds * ownShare
	}
	return o.seconds * probeShare
}

// checkError marks a failed correctness check: the run's outputs are wrong.
type checkError struct{ err error }

func (e checkError) Error() string { return "check failed: " + e.err.Error() }

func failCheck(format string, a ...any) error { return checkError{fmt.Errorf(format, a...)} }

var workloads = map[string]func(options, *report) error{
	"sim-fattree":   runSimFattree,
	"ingest-replay": runIngestReplay,
	"query-mixed":   runQueryMixed,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pipebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 for a traced run reporting per-layer metrics")
	fs.StringVar(&o.spansOut, "spans-out", "", "traced run: write every span to this file as JSON lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[o.workload]
	if !ok || fs.NArg() > 0 || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "usage: pipebench --workload {%s} --seed N --seconds S --trace {0|1}\n", workloadNames())
		return 2
	}
	if o.trace = traceFlag == 1; o.trace {
		o.tr, o.prof = newTracer(), newCPUProfile()
	}

	rep := newReport()
	clock0 := readClock()
	err := w(o, rep)
	var ce checkError
	if errors.As(err, &ce) {
		fmt.Fprintln(stderr, "pipebench:", err)
		line, _ := json.Marshal(result{Correct: false, Attempted: max(rep.attempted, 1), Failed: rep.failed, Metrics: map[string]metric{}})
		fmt.Fprintln(stdout, string(line))
		return 1
	}
	if err != nil {
		fmt.Fprintln(stderr, "pipebench:", err)
		return 2
	}
	rep.set("peak_rss_mb", peakRSSMB())
	steal := clock0.stealShare(readClock())
	rep.set("host.steal_frac", steal)
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res, err := rep.finish(defs, true)
	if err != nil {
		fmt.Fprintln(stderr, "pipebench:", err)
		return 2
	}
	if err := o.tr.writeJSONL(o.spansOut); err != nil {
		fmt.Fprintln(stderr, "pipebench: writing spans:", err)
		return 2
	}
	fmt.Fprintf(stderr, "pipebench %s seed=%d seconds=%g trace=%v host-steal=%.3f\n", o.workload, o.seed, o.seconds, o.trace, steal)
	res.print(stderr)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "pipebench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
