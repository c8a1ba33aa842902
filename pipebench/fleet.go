package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/fleet"
	"github.com/netmeasure/rlir/internal/queryapi"
	"github.com/netmeasure/rlir/internal/service"
)

const (
	// fleetInstances is the rlird instance count; each gets one router
	// connection.
	fleetInstances = 2
	// routeBatch is the samples per RouteSamples call.
	routeBatch = 256
	// drainTimeout bounds the wait for routed samples to be ingested; a
	// sample still missing after it is a failed operation.
	drainTimeout = 10 * time.Second
	// queryTimeout bounds one /flows request.
	queryTimeout = 10 * time.Second
)

// fleetUnderTest is a fleet of rlird instances on loopback TCP, with a
// fleet front-end served over loopback HTTP, all in this process.
type fleetUnderTest struct {
	servers   []*service.Server
	ingest    []string // instance ingest addresses
	instances []string // instance HTTP base URLs
	front     *http.Server
	url       string
}

// startFleet starts the instances and the front-end. With tr set, the
// front-end's instance client records spans for queries that carry
// queryHeader (tracingTransport).
func startFleet(tr *tracer) (*fleetUnderTest, error) {
	f := &fleetUnderTest{}
	for i := 0; i < fleetInstances; i++ {
		s, err := service.New(service.Config{Listen: "127.0.0.1:0", HTTP: "127.0.0.1:0"})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("start rlird: %w", err)
		}
		f.servers = append(f.servers, s)
		f.ingest = append(f.ingest, s.Addr().String())
		f.instances = append(f.instances, "http://"+s.HTTPAddr().String())
	}
	var transport http.RoundTripper = newTransport()
	if tr != nil {
		transport = tracingTransport{base: transport, tr: tr}
	}
	front, err := fleet.NewFrontend(fleet.FrontendConfig{Instances: f.instances, Client: &http.Client{Transport: transport}})
	if err != nil {
		f.close()
		return nil, err
	}
	handler := front.Handler()
	if tr != nil {
		handler = withQueryRef(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.front = &http.Server{Handler: handler}
	f.url = "http://" + ln.Addr().String()
	go func() { _ = f.front.Serve(ln) }()
	return f, nil
}

func newTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 4
	return t
}

// close stops the front-end and every instance and waits for them.
func (f *fleetUnderTest) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if f.front != nil {
		_ = f.front.Shutdown(ctx)
	}
	for _, s := range f.servers {
		_ = s.Shutdown(ctx)
	}
}

// ingested is the fleet-wide count of samples the collectors accepted.
func (f *fleetUnderTest) ingested() uint64 {
	var n uint64
	for _, s := range f.servers {
		n += s.Collector().SamplesIngested()
	}
	return n
}

// waitIngested polls until the fleet has ingested target samples or the
// timeout passes, and returns the count reached.
func (f *fleetUnderTest) waitIngested(target uint64, timeout time.Duration) uint64 {
	deadline := time.Now().Add(timeout)
	for {
		n := f.ingested()
		if n >= target || time.Now().After(deadline) {
			return n
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// newRouter dials a router with one connection per instance; with tr set,
// every sink is a timedSink.
func (f *fleetUnderTest) newRouter(tr *tracer) (*fleet.Router, error) {
	return fleet.NewRouter(fleet.Config{
		Endpoints: f.ingest,
		Name:      "pipebench",
		Batch:     routeBatch,
		Dial: func(endpoint string, _ int) (fleet.Sink, error) {
			c, err := service.DialWith(service.DialOptions{Addr: endpoint, Batch: routeBatch})
			if err != nil || tr == nil {
				return c, err
			}
			return timedSink{Sink: c, tr: tr}, nil
		},
	})
}

// segmentSamples sizes one timed replay segment: whole capture passes of
// at least this many samples through a fresh router.
const segmentSamples = 500_000

// replayStats is one replay's outcome, summed over its segments.
type replayStats struct {
	routed   uint64
	ingested uint64    // of routed, ingested by the end of each drain wait
	rates    []float64 // per segment: samples ingested per host second
	drains   []float64 // per segment: seconds from Router.Close to the last sample ingested
	wall     float64   // wall seconds, summed over segments
	frames   uint64
	dropped  uint64
	mallocs  uint64
}

// rate is the median segment rate. Segments run at one of two paces about
// 2x apart: in the slow one the pipeline uses about one CPU instead of
// two, for the same CPU time. How many segments run slow varies from run
// to run (from under a tenth to near half), so the total rate would move
// with that mix; the median stays on the fast pace while slow segments
// are fewer than half.
func (r replayStats) rate() float64 { return median(r.rates) }

// replay runs timed segments of whole capture passes at line rate: n
// segments, or with n == 0 as many as start before deadline (at least
// one). See replaySegment.
func (f *fleetUnderTest) replay(samples []collector.Sample, n int, deadline time.Time, tr *tracer) (replayStats, error) {
	var st replayStats
	passes := (segmentSamples + len(samples) - 1) / len(samples)
	for n == 0 && (len(st.rates) == 0 || time.Now().Before(deadline)) || len(st.rates) < n {
		if err := f.replaySegment(samples, passes, tr, &st); err != nil {
			return st, err
		}
	}
	return st, nil
}

// replaySegment streams passes whole passes of samples through a fresh
// router, a closed loop whose pace is set by the router's bounded queues
// and TCP backpressure, and adds the outcome to st. The segment's rate
// runs from the first route to the last sample ingested; its drain from
// Router.Close returning to the last sample ingested. A router that fails
// to close (a sink or rlird failed) fails the check.
func (f *fleetUnderTest) replaySegment(samples []collector.Sample, passes int, tr *tracer, st *replayStats) error {
	r, err := f.newRouter(tr)
	if err != nil {
		return err
	}
	base := f.ingested()
	var ms0, ms1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	start := readClock()
	for p := 0; p < passes; p++ {
		for off := 0; off < len(samples); off += routeBatch {
			b := samples[off:min(off+routeBatch, len(samples))]
			t0 := tr.now()
			r.RouteSamples(b)
			if tr != nil {
				tr.record(span{Name: "fleet.route", Start: t0, End: tr.now()})
			}
		}
	}
	routed := uint64(passes * len(samples))
	closeErr := r.Close()
	closed := time.Now()
	ingested := f.waitIngested(base+routed, drainTimeout) - base
	end := readClock()
	if tr != nil {
		runtime.ReadMemStats(&ms1)
		st.mallocs += ms1.Mallocs - ms0.Mallocs
	}
	for _, e := range r.Stats() {
		st.frames += e.FramesSent
		st.dropped += e.Dropped
	}
	st.routed += routed
	st.ingested += ingested
	st.rates = append(st.rates, float64(ingested)/start.hostSince(end).Seconds())
	st.drains = append(st.drains, end.wall.Sub(closed).Seconds())
	st.wall += end.wall.Sub(start.wall).Seconds()
	if closeErr != nil {
		return failCheck("router close: %v", closeErr)
	}
	return nil
}

// mergedSnapshot fetches every instance's /snapshot and merges the raw
// flow state, as the front-end does for /flows. An instance that does not
// answer with a valid snapshot fails the check.
func (f *fleetUnderTest) mergedSnapshot() ([]collector.FlowAgg, error) {
	var parts [][]collector.FlowAgg
	for _, u := range f.instances {
		var snap queryapi.Snapshot
		if err := getJSON(u+"/snapshot", &snap); err != nil {
			return nil, checkError{err}
		}
		if err := snap.Check(); err != nil {
			return nil, failCheck("/snapshot: %v", err)
		}
		parts = append(parts, snap.Aggs())
	}
	return collector.Merge(parts...), nil
}

// decodeErrors sums rlird_decode_errors_total over the instances'
// /metrics. An instance whose /metrics lacks the counter fails the check.
func (f *fleetUnderTest) decodeErrors() (uint64, error) {
	var total uint64
	for _, u := range f.instances {
		n, err := scrapeDecodeErrors(u + "/metrics")
		if err != nil {
			return 0, failCheck("/metrics: %v", err)
		}
		total += n
	}
	return total, nil
}

func scrapeDecodeErrors(url string) (uint64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, errors.New(resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "rlird_decode_errors_total "); ok {
			return strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no rlird_decode_errors_total")
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// queryStats is one query-under-ingest phase's outcome.
type queryStats struct {
	latMs      []float64 // successful /flows, request to last body byte, in host ms
	attempted  int64
	failed     int64 // non-200, transport errors and timeouts
	badRows    int   // 200 answers whose row count was wrong
	flowsBytes []float64

	offered  float64 // samples/s the generator was asked for
	sent     uint64  // samples the generator routed
	achieved float64 // samples/s ingested during the phase
	unIngest uint64  // generated samples still missing after the drain wait
	lateMs   []float64
	lastBody []byte
}

// queryUnderIngest runs one closed-loop /flows client beside an open-loop
// generator replaying samples at offered samples/s through its own router.
// The phase lasts dur and at least minQueries queries. Every answer must be
// 200 with wantRows rows.
func (f *fleetUnderTest) queryUnderIngest(samples []collector.Sample, wantRows int, offered float64, dur time.Duration, minQueries int, tr *tracer) (queryStats, error) {
	st := queryStats{offered: offered}
	// The generator's sinks are not timed: service.send covers the
	// closed-loop replay only.
	r, err := f.newRouter(nil)
	if err != nil {
		return st, err
	}
	client := &http.Client{Transport: newTransport(), Timeout: queryTimeout}
	defer client.CloseIdleConnections()

	base := f.ingested()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var sent uint64
	var lateMs []float64
	wg.Add(1)
	go func() {
		defer wg.Done()
		sent, lateMs = generate(r, samples, offered, stop)
	}()

	start := time.Now()
	rows := []byte(`"src":`)
	for time.Since(start) < dur || st.attempted < int64(minQueries) {
		st.attempted++
		q := queryRef{trace: tr.newID(), span: tr.newID()}
		t0, tt0 := readClock(), tr.now()
		body, code, err := getFlows(client, f.url+"/flows", q, tr != nil)
		lat := t0.hostElapsed()
		if err != nil || code != http.StatusOK {
			st.failed++
			continue
		}
		if tr != nil {
			tr.record(span{Trace: q.trace, ID: q.span, Name: "fleet.query", Start: tt0, End: tr.now(), Bytes: int64(len(body))})
		}
		if bytes.Count(body, rows) != wantRows {
			st.badRows++
		}
		st.latMs = append(st.latMs, float64(lat)/1e6)
		st.flowsBytes = append(st.flowsBytes, float64(len(body)))
		st.lastBody = body
	}
	st.achieved = float64(f.ingested()-base) / time.Since(start).Seconds()

	close(stop)
	wg.Wait()
	st.sent, st.lateMs = sent, lateMs
	closeErr := r.Close()
	got := f.waitIngested(base+st.sent, drainTimeout) - base
	st.unIngest = st.sent - min(got, st.sent)
	if closeErr != nil {
		return st, failCheck("generator router close: %v", closeErr)
	}
	return st, nil
}

// getFlows issues one /flows request and reads the whole body.
func getFlows(c *http.Client, url string, q queryRef, traced bool) ([]byte, int, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	if traced {
		req.Header.Set(queryHeader, q.String())
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// generate routes samples through r, cycling through them, on a fixed
// schedule of rate samples/s until stop closes. Each batch is due at
// start + (samples sent before it) / rate, whatever happened to the batch
// before, so a stall makes later batches late rather than the schedule
// slip; the lateness of every batch is returned in ms.
func generate(r *fleet.Router, samples []collector.Sample, rate float64, stop <-chan struct{}) (sent uint64, lateMs []float64) {
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	start := time.Now()
	off := 0
	for {
		due := start.Add(time.Duration(float64(sent) / rate * 1e9))
		now := time.Now()
		if wait := due.Sub(now); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return sent, lateMs
			case <-timer.C:
			}
			now = time.Now()
		} else {
			select {
			case <-stop:
				return sent, lateMs
			default:
			}
		}
		lateMs = append(lateMs, float64(now.Sub(due))/1e6)
		end := min(off+routeBatch, len(samples))
		r.RouteSamples(samples[off:end])
		sent += uint64(end - off)
		if off = end; off == len(samples) {
			off = 0
		}
	}
}
