package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netmeasure/rlir/internal/collector"
	"github.com/netmeasure/rlir/internal/fleet"
)

// span is one timed interval at a layer boundary. Spans of one query share
// Trace; a child names its cause in Parent. Times are nanoseconds since the
// tracer's epoch.
type span struct {
	Trace  uint64 `json:"trace,omitempty"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil and pay only a nil check.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores s, giving it an ID when it has none.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// named returns the spans called name that started in [from, to).
func (t *tracer) named(name string, from, to int64) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.Start >= from && s.Start < to {
			out = append(out, s)
		}
	}
	return out
}

// totalSeconds sums the durations of spans.
func totalSeconds(spans []span) float64 {
	var d time.Duration
	for _, s := range spans {
		d += s.dur()
	}
	return d.Seconds()
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if t == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is parent's duration minus the part of its interval that the
// union of its children's intervals covers.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return parent.dur() - time.Duration(covered)
}

// timedSink wraps a router sink with a "service.send" span around every
// SendSamples and Flush: frame encode plus socket writes.
type timedSink struct {
	fleet.Sink
	tr *tracer
}

func (s timedSink) SendSamples(b []collector.Sample) error {
	start := s.tr.now()
	err := s.Sink.SendSamples(b)
	s.tr.record(span{Name: "service.send", Start: start, End: s.tr.now()})
	return err
}

func (s timedSink) Flush() error {
	start := s.tr.now()
	err := s.Sink.Flush()
	s.tr.record(span{Name: "service.send", Start: start, End: s.tr.now()})
	return err
}

// queryHeader carries a traced query's trace and span IDs from the
// benchmark's client through the front-end to its instance requests.
const queryHeader = "X-Pipebench-Query"

type queryKey struct{}

// queryRef is the query span a front-end's instance requests belong to.
type queryRef struct{ trace, span uint64 }

func (q queryRef) String() string { return fmt.Sprintf("%d-%d", q.trace, q.span) }

func parseQueryRef(s string) (queryRef, bool) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		return queryRef{}, false
	}
	t, err1 := strconv.ParseUint(a, 10, 64)
	p, err2 := strconv.ParseUint(b, 10, 64)
	return queryRef{t, p}, err1 == nil && err2 == nil
}

// withQueryRef passes a traced query's ID, carried in queryHeader, to the
// front-end on the request context, which its instance requests derive
// from.
func withQueryRef(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if q, ok := parseQueryRef(r.Header.Get(queryHeader)); ok {
			r = r.WithContext(context.WithValue(r.Context(), queryKey{}, q))
		}
		h.ServeHTTP(w, r)
	})
}

// tracingTransport records, per instance request of a traced query, a
// "service.snapshot_ttfb" span (request sent until response headers: the
// instance's Collector.Snapshot, SnapshotOf and JSON encode) and a
// "service.snapshot_body" span (headers until the body is read), both
// children of the query that caused them. Requests of untraced queries go
// straight to base.
type tracingTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	q, ok := req.Context().Value(queryKey{}).(queryRef)
	if !ok {
		return t.base.RoundTrip(req)
	}
	start := t.tr.now()
	resp, err := t.base.RoundTrip(req)
	hdr := t.tr.now()
	t.tr.record(span{Trace: q.trace, Parent: q.span, Name: "service.snapshot_ttfb", Start: start, End: hdr})
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, tr: t.tr, q: q, reqStart: start, start: hdr}
	return resp, nil
}

// timedBody records, at EOF or Close, whichever comes first, its
// "service.snapshot_body" span and the "fleet.instance" span covering the
// whole instance request.
type timedBody struct {
	io.ReadCloser
	tr       *tracer
	q        queryRef
	reqStart int64
	start    int64
	n        int64
	done     bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *timedBody) finish() {
	if b.done {
		return
	}
	b.done = true
	end := b.tr.now()
	b.tr.record(span{Trace: b.q.trace, Parent: b.q.span, Name: "service.snapshot_body", Start: b.start, End: end, Bytes: b.n})
	b.tr.record(span{Trace: b.q.trace, Parent: b.q.span, Name: "fleet.instance", Start: b.reqStart, End: end, Bytes: b.n})
}
