package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/packet"
	"github.com/netmeasure/rlir/internal/trace"
)

// Seeds derives n independent, reproducible run seeds from base.
func Seeds(base int64, n int) []int64 { return trace.DeriveSeeds(base, n) }

// MultiOpts sizes a multi-seed sweep.
type MultiOpts struct {
	// Seeds is the number of independent runs (<= 0 uses DefaultSeeds).
	Seeds int
	// Workers caps parallel runs (<= 0 uses GOMAXPROCS).
	Workers int
}

// DefaultSeeds is the sweep size when MultiOpts.Seeds is unset: enough for
// a meaningful t-interval without exploding CI time.
const DefaultSeeds = 8

// SeedsFrom derives the sweep's run seeds from base.
func (o MultiOpts) SeedsFrom(base int64) []int64 {
	n := o.Seeds
	if n <= 0 {
		n = DefaultSeeds
	}
	return Seeds(base, n)
}

// Workers normalizes a worker-count knob: values <= 0 mean GOMAXPROCS.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs job(i, seeds[i]) for every seed across at most workers
// goroutines and returns the results in seed order, regardless of
// completion order. workers <= 0 uses GOMAXPROCS; the single-worker path
// runs inline (no goroutines), which keeps 1-worker sweeps exactly as
// debuggable as a plain loop.
func Map[R any](seeds []int64, workers int, job func(i int, seed int64) R) []R {
	n := len(seeds)
	out := make([]R, n)
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i, s := range seeds {
			out[i] = job(i, s)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = job(i, seeds[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// Sink batches one run's per-packet estimates into a collector. It is
// single-producer state (one Sink per run); the shared collector handles
// cross-run concurrency. Bind it to a receiver via Add as the OnEstimate
// hook and call Flush when the run ends.
type Sink struct {
	c     *collector.Collector
	buf   []collector.Sample
	batch int
}

// DefaultBatch is the sample batch size a Sink flushes at: large enough to
// amortize channel sends, small enough to keep collector queues shallow.
const DefaultBatch = 256

// NewSink creates a sink feeding c in batches of the given size (<= 0 uses
// DefaultBatch).
func NewSink(c *collector.Collector, batch int) *Sink {
	if batch <= 0 {
		batch = DefaultBatch
	}
	return &Sink{c: c, buf: make([]collector.Sample, 0, batch), batch: batch}
}

// Add buffers one estimate; its signature matches core.EstimateFunc.
func (s *Sink) Add(key packet.FlowKey, est, truth time.Duration) {
	s.buf = append(s.buf, collector.Sample{Key: key, Est: est, True: truth})
	if len(s.buf) >= s.batch {
		s.Flush()
	}
}

// Flush hands the buffered batch to the collector. The collector copies
// during partitioning, so the buffer is immediately reusable.
func (s *Sink) Flush() {
	s.c.Ingest(s.buf)
	s.buf = s.buf[:0]
}

// Run is the context handed to a SweepInto job.
type Run struct {
	// Index is the run's position in the seed list.
	Index int
	// Seed is the run's derived seed.
	Seed int64
	// Sink streams the run's samples into the sweep's shared collector.
	// The runner flushes it after the job returns.
	Sink *Sink
}

// SweepInto fans jobs over seeds with at most workers goroutines, streaming
// every run's samples into the shared collector c. Results are returned in
// seed order. The caller owns c (snapshot/close); per-flow aggregates for
// flows unique to one run are bit-deterministic, while flows appearing in
// several runs merge in run-completion order (document accordingly or merge
// per-run snapshots instead).
func SweepInto[R any](c *collector.Collector, seeds []int64, workers int, job func(Run) R) []R {
	return Map(seeds, workers, func(i int, seed int64) R {
		sink := NewSink(c, 0)
		r := job(Run{Index: i, Seed: seed, Sink: sink})
		sink.Flush()
		return r
	})
}
