package main

// The traced run's instruments. Spans (name, start, end, parent, request
// id) are recorded by this benchmark around its own calls into each
// layer's public functions, by timing decorators on the two injectable
// seams (jobs.Journal and engine.VerdictStore), by a decorator around the
// daemon's HTTP handler and by the load generator's transport. Spans stay
// in memory; the run writes them out at the end.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/jobs"
)

// span is one timed call. Request is the replayed request (or HTTP
// request id) the span belongs to; Parent is the enclosing span.
type span struct {
	Name    string    `json:"name"`
	ID      int64     `json:"id"`
	Parent  int64     `json:"parent,omitempty"`
	Request int64     `json:"request,omitempty"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Route   string    `json:"route,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer collects spans. Replays run one request at a time, so the
// current replay span (cur) is the parent of any seam span recorded while
// it runs.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	nextID atomic.Int64
	cur    atomic.Int64
	req    atomic.Int64
}

func (t *tracer) add(s span) int64 {
	if s.ID == 0 {
		s.ID = t.nextID.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// root runs f as the root span of a new replayed request.
func (t *tracer) root(name string, f func(id int64) error) error {
	t.req.Store(t.nextID.Add(1))
	defer t.req.Store(0)
	return t.run(name, 0, f)
}

// run times f as a span under parent; seam spans recorded while f runs
// become its children.
func (t *tracer) run(name string, parent int64, f func(id int64) error) error {
	id := t.nextID.Add(1)
	prev := t.cur.Swap(id)
	start := time.Now()
	err := f(id)
	end := time.Now()
	t.cur.Store(prev)
	t.add(span{Name: name, ID: id, Parent: parent, Request: t.req.Load(), Start: start, End: end})
	return err
}

// seam records a decorator span under the current replay span.
func (t *tracer) seam(name string, start time.Time) {
	t.add(span{Name: name, Parent: t.cur.Load(), Request: t.req.Load(), Start: start, End: time.Now()})
}

// tracedStore times the engine's persistent verdict store.
type tracedStore struct {
	t     *tracer
	inner engine.VerdictStore
}

func (s tracedStore) Get(key [32]byte) (bool, bool) {
	start := time.Now()
	v, ok := s.inner.Get(key)
	s.t.seam("perfdb.get", start)
	return v, ok
}

func (s tracedStore) Put(key [32]byte, verdict bool) error {
	start := time.Now()
	err := s.inner.Put(key, verdict)
	s.t.seam("perfdb.put", start)
	return err
}

// tracedJournal times the jobs manager's durable journal.
type tracedJournal struct {
	t     *tracer
	inner jobs.Journal
}

func (j tracedJournal) JobSubmitted(id, kind, resumedFrom string, created time.Time, spec any) error {
	start := time.Now()
	err := j.inner.JobSubmitted(id, kind, resumedFrom, created, spec)
	j.t.seam("jobstore.submit", start)
	return err
}

func (j tracedJournal) JobEvent(id string, ev jobs.Event) {
	start := time.Now()
	j.inner.JobEvent(id, ev)
	j.t.seam("jobstore.append", start)
}

func (j tracedJournal) JobCheckpoint(id string, cp any) {
	start := time.Now()
	j.inner.JobCheckpoint(id, cp)
	j.t.seam("jobstore.append", start)
}

func (j tracedJournal) JobFinished(id string, state jobs.State, errMsg string, result any, started, finished time.Time) {
	start := time.Now()
	j.inner.JobFinished(id, state, errMsg, result, started, finished)
	j.t.seam("jobstore.finish", start)
}

func (j tracedJournal) JobRemoved(id string) {
	start := time.Now()
	j.inner.JobRemoved(id)
	j.t.seam("jobstore.append", start)
}

// idSegment collapses the variable path segment of each resource.
var idSegment = regexp.MustCompile(`^/v1/(models|jobs|streams)/[^/]+`)

// route is a request's method and path pattern.
func route(r *http.Request) string {
	return r.Method + " " + idSegment.ReplaceAllString(r.URL.Path, "/v1/$1/{id}")
}

// seams returns the daemon decorators that report into t.
func (t *tracer) seams() seams {
	return seams{
		store:   func(s engine.VerdictStore) engine.VerdictStore { return tracedStore{t, s} },
		journal: func(j jobs.Journal) jobs.Journal { return tracedJournal{t, j} },
		handler: func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				start := time.Now()
				h.ServeHTTP(w, r)
				id, _ := strconv.ParseInt(r.Header.Get(requestIDHeader), 10, 64)
				t.add(span{Name: "server.handler", Request: id, Start: start, End: time.Now(), Route: route(r)})
			})
		},
	}
}

// transport records each request's client-side round trip, from send to
// the close of the fully read body.
type transport struct {
	t     *tracer
	inner http.RoundTripper
}

func (tr transport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := tr.inner.RoundTrip(r)
	if err != nil {
		return resp, err
	}
	id, _ := strconv.ParseInt(r.Header.Get(requestIDHeader), 10, 64)
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		tr.t.add(span{Name: "client.round_trip", Request: id, Start: start, End: time.Now(), Route: route(r)})
	}}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// client returns a fresh client whose transport records round-trip spans.
func (t *tracer) client() *http.Client {
	c := newClient()
	c.Transport = transport{t: t, inner: c.Transport}
	return c
}

// layerStats summarises one span name.
type layerStats struct {
	calls  int
	selfMS float64
	p50MS  float64
}

// selfTimes computes every span's self time: its duration minus the time
// its children take. Replays run one call at a time, so a span's children
// do not overlap, except seam spans from concurrent engine workers; self
// time is clamped at zero for those.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		self := s.dur() - child[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Name] = append(out[s.Name], ms(self))
	}
	return out
}

// layers reports calls, total self ms and p50 self ms per span name.
func (t *tracer) layers() map[string]layerStats {
	out := map[string]layerStats{}
	for name, xs := range t.selfTimes() {
		out[name] = summarise(xs)
	}
	return out
}

func summarise(xs []float64) layerStats {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return layerStats{calls: len(xs), selfMS: sum, p50MS: median(xs)}
}

// coverage reports, over the replayed requests (root spans), the share
// of wall time their child spans cover: time-weighted overall, and the
// lowest single request.
func (t *tracer) coverage() (overall, lowest float64, roots int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.dur()
		}
	}
	var wall, cov time.Duration
	lowest = 1
	for _, s := range t.spans {
		if s.Parent != 0 || s.Request == 0 || s.Name == "server.handler" || s.Name == "client.round_trip" {
			continue
		}
		c := min(covered[s.ID], s.dur())
		wall += s.dur()
		cov += c
		if s.dur() > 0 {
			lowest = min(lowest, float64(c)/float64(s.dur()))
		}
		roots++
	}
	if wall == 0 {
		return 0, 0, 0
	}
	return float64(cov) / float64(wall), lowest, roots
}

// serverNet pairs each client round trip with its handler span: the
// handler's time, and the round trip minus it (transport, encoding and
// scheduling outside the handler). Event followers are excluded — their
// handler lasts as long as the subscription.
func (t *tracer) serverNet() (handler, net, register []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := map[int64]span{}
	for _, s := range t.spans {
		if s.Name == "server.handler" {
			h[s.Request] = s
		}
	}
	for _, s := range t.spans {
		if s.Name != "client.round_trip" || strings.HasSuffix(s.Route, "/events") {
			continue
		}
		hs, ok := h[s.Request]
		if !ok {
			continue
		}
		handler = append(handler, ms(hs.dur()))
		net = append(net, max(0, ms(s.dur()-hs.dur())))
		if hs.Route == "POST /v1/models" {
			register = append(register, ms(hs.dur()))
		}
	}
	return handler, net, register
}

// writeSpans writes every span as JSON lines to path.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].Start.Before(t.spans[j].Start) })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
