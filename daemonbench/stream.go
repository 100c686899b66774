package main

// The stream workload: one live stream (block policy) on a restricted
// reader model, fed through one ingest connection and watched through
// one /events follower. Phase A is an open loop at the fixed rate frozen
// in BENCHMARK.json: observation k is due at start + k/rate, and its
// latency runs from that due time to its verdict event, so a stall is
// charged to every observation it delays. Phase B is a closed loop that
// sends the next batch as soon as the previous one is queued, measuring
// the saturation rate. The final stream state must equal
// engine.StateOf of a batch Session.Evaluate over the same observations.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/engine"
	"repro/internal/stats"
)

const (
	// streamDistinct observations are ingested first, as an untimed
	// warm-up; every later one repeats one of them byte for byte (a
	// verdict-cache hit), so phase A measures the steady state: region,
	// LP build and hash per observation, no solving.
	streamDistinct = 64
	// satBatch is the closed-loop batch size of phase B.
	satBatch = 32
)

// streamRate reads phase A's rate from the stream workload's record in
// BENCHMARK.json ("open loop at N obs/s").
func streamRate() (float64, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return 0, err
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		return 0, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	re := regexp.MustCompile(`open loop at (\d+) obs/s`)
	for _, w := range bj.Workloads {
		if w.Name == "stream" {
			if m := re.FindStringSubmatch(w.Why); m != nil {
				return strconv.ParseFloat(m[1], 64)
			}
		}
	}
	return 0, fmt.Errorf("BENCHMARK.json: stream workload does not state its open-loop rate")
}

// streamInputs are the seeded observations of the workload.
type streamInputs struct {
	distinct []*counters.Observation
	lines    [][]byte // NDJSON line per distinct observation
	order    []int    // ingest sequence as indexes into distinct
	rate     float64
}

func newStreamInputs(env *runEnv) (*streamInputs, error) {
	rate, err := streamRate()
	if err != nil {
		return nil, err
	}
	pool, err := newObsPool()
	if err != nil {
		return nil, err
	}
	in := &streamInputs{rate: rate}
	s := pool.stream(env.seed*31 + streamStreamObs)
	for i := 0; i < streamDistinct; i++ {
		o := s.next()
		line, err := json.Marshal(o)
		if err != nil {
			return nil, err
		}
		in.distinct = append(in.distinct, o)
		in.lines = append(in.lines, line)
	}
	// Enough for phase A at the frozen rate plus a saturation phase at up
	// to 8 times that rate; the sequence is the same for every run of a
	// seed whatever prefix of it a run consumes.
	n := int(rate*env.seconds.Seconds()*5) + streamDistinct
	rng := env.rng(streamStreamObs)
	for k := 0; k < n; k++ {
		if k < streamDistinct {
			in.order = append(in.order, k)
		} else {
			in.order = append(in.order, rng.Intn(streamDistinct))
		}
	}
	return in, nil
}

// streamEvent is one decoded /events line.
type streamEvent struct {
	Kind string `json:"kind"`
	Data struct {
		Index      int                `json:"index"`
		Feasible   bool               `json:"feasible"`
		Violations []string           `json:"violations"`
		State      engine.StreamState `json:"state"`
	} `json:"data"`
}

// streamRun is what one drive sent and saw.
type streamRun struct {
	id       string
	sent     int             // observations queued
	seen     atomic.Int64    // verdict events received so far
	dueFrom  int             // index of the first phase A observation
	due      []time.Time     // phase A due times, from dueFrom on
	lateness []float64       // phase A send lateness, ms
	acks     []float64       // phase A ingest request round trips, ms
	ackAt    []time.Duration // when each ack's request was sent, from phase A's start
	phaseB   int             // index of the first phase B observation
	bStart   time.Time       // phase B window start
	bEnd     time.Time       // phase B window end
	arrivals []time.Time     // verdict event arrival, by index
	verdicts []streamEvent   // verdict events, by index
	final    engine.StreamState
	closed   bool
}

// driveStream creates the stream, runs the warm-up and both phases (two
// thirds of dur open loop, the rest closed loop; the latency percentiles
// need the longer phase) and closes it, waiting for the terminal event.
func driveStream(ctx context.Context, in *streamInputs, c *http.Client, d *daemon, dur time.Duration) (*streamRun, error) {
	run := &streamRun{}
	var created struct {
		ID string `json:"id"`
	}
	if _, err := doJSON(ctx, c, "POST", d.url+"/v1/streams",
		map[string]string{"model": restrictedName(streamModel), "policy": "block"}, &created); err != nil {
		return nil, fmt.Errorf("create stream: %w", err)
	}
	run.id = created.ID
	fctx, stopFollow := context.WithCancel(ctx)
	defer stopFollow()
	var followErr error
	var wg sync.WaitGroup
	followed := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(followed)
		defer func() {
			if p := recover(); p != nil {
				followErr = fmt.Errorf("stream follower panicked: %v", p)
			}
		}()
		followErr = run.follow(fctx, c, d)
	}()

	spanA, spanB := phaseSpans(dur)
	ingestErr := run.warmUp(ctx, in, c, d, followed)
	if ingestErr == nil {
		ingestErr = run.openLoop(ctx, in, c, d, spanA)
	}
	if ingestErr == nil {
		ingestErr = run.closedLoop(ctx, in, c, d, spanB)
	}
	_, delErr := doJSON(ctx, c, "DELETE", d.url+"/v1/streams/"+run.id, nil, nil)
	if delErr != nil {
		stopFollow()
	}
	wg.Wait()
	switch {
	case ingestErr != nil:
		return run, ingestErr
	case delErr != nil:
		return run, fmt.Errorf("close stream: %w", delErr)
	case followErr != nil:
		return run, followErr
	}
	return run, nil
}

// ingest sends observations [from, to) of the sequence as one request.
func (run *streamRun) ingest(ctx context.Context, in *streamInputs, c *http.Client, d *daemon, from, to int) error {
	var body bytes.Buffer
	for k := from; k < to; k++ {
		body.Write(in.lines[in.order[k]])
		body.WriteByte('\n')
	}
	var sum struct {
		Received int `json:"received"`
		Queued   int `json:"queued"`
	}
	rctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	sentAt := time.Now()
	cl, err := do(rctx, c, "POST", d.url+"/v1/streams/"+run.id+"/ingest", "application/x-ndjson", body.Bytes())
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	if run.due != nil && run.bStart.IsZero() {
		run.acks = append(run.acks, ms(cl.latency))
		run.ackAt = append(run.ackAt, sentAt.Sub(run.due[0]))
	}
	if err := json.Unmarshal(cl.body, &sum); err != nil {
		return err
	}
	if sum.Received != to-from || sum.Queued != to-from {
		return fmt.Errorf("ingest of %d observations: received %d, queued %d", to-from, sum.Received, sum.Queued)
	}
	run.sent = to
	return nil
}

// warmUp ingests the distinct observations and waits for their verdicts
// (or for the follower to give up).
func (run *streamRun) warmUp(ctx context.Context, in *streamInputs, c *http.Client, d *daemon, followed <-chan struct{}) error {
	if err := run.ingest(ctx, in, c, d, 0, streamDistinct); err != nil {
		return err
	}
	for run.seen.Load() < streamDistinct {
		select {
		case <-time.After(2 * time.Millisecond):
		case <-followed:
			return fmt.Errorf("stream follower stopped during the warm-up")
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// openLoop sends every observation at its due time; a late generator
// sends everything already due in one request and records how late.
func (run *streamRun) openLoop(ctx context.Context, in *streamInputs, c *http.Client, d *daemon, dur time.Duration) error {
	start := time.Now()
	n := int(in.rate * dur.Seconds())
	run.dueFrom = run.sent
	run.due = make([]time.Time, n)
	for i := range run.due {
		run.due[i] = start.Add(time.Duration(float64(i) / in.rate * float64(time.Second)))
	}
	for i := 0; i < n; {
		if wait := time.Until(run.due[i]); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		now := time.Now()
		j := i
		for j < n && !run.due[j].After(now) {
			run.lateness = append(run.lateness, ms(now.Sub(run.due[j])))
			j++
		}
		if err := run.ingest(ctx, in, c, d, run.dueFrom+i, run.dueFrom+j); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// phaseA returns each phase A observation's latency from its due time to
// its verdict event, in ms, and its due time from phase A's start.
func (run *streamRun) phaseA() (lat []float64, at []time.Duration) {
	for i, due := range run.due {
		if k := run.dueFrom + i; k < len(run.arrivals) {
			lat = append(lat, ms(run.arrivals[k].Sub(due)))
			at = append(at, due.Sub(run.due[0]))
		}
	}
	return lat, at
}

// phaseSpans returns how long phases A and B were planned to take.
func phaseSpans(dur time.Duration) (a, b time.Duration) { return dur * 2 / 3, dur - dur*2/3 }

// closedLoop sends satBatch observations at a time, back to back.
func (run *streamRun) closedLoop(ctx context.Context, in *streamInputs, c *http.Client, d *daemon, dur time.Duration) error {
	run.phaseB = run.sent
	run.bStart = time.Now()
	deadline := run.bStart.Add(dur)
	for k := run.sent; time.Now().Before(deadline); k += satBatch {
		if k+satBatch > len(in.order) {
			return fmt.Errorf("saturation phase outran its %d prepared observations", len(in.order))
		}
		if err := run.ingest(ctx, in, c, d, k, k+satBatch); err != nil {
			return err
		}
	}
	run.bEnd = time.Now()
	return nil
}

// follow records every verdict event until the terminal one.
func (run *streamRun) follow(ctx context.Context, c *http.Client, d *daemon) error {
	req, err := http.NewRequestWithContext(ctx, "GET", d.url+"/v1/streams/"+run.id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		now := time.Now()
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("stream event: %w", err)
		}
		switch ev.Kind {
		case "verdict":
			if ev.Data.Index != len(run.verdicts) {
				return fmt.Errorf("verdict index %d after %d verdicts", ev.Data.Index, len(run.verdicts))
			}
			run.verdicts = append(run.verdicts, ev)
			run.arrivals = append(run.arrivals, now)
			run.final = ev.Data.State
			run.seen.Add(1)
		case "closed":
			run.closed = true
			return nil
		case "error", "dropped":
			return fmt.Errorf("stream event %s: %s", ev.Kind, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("stream events ended without the terminal event")
}

func runStream(ctx context.Context, env *runEnv, out *outcome) error {
	t0 := time.Now()
	in, err := newStreamInputs(env)
	if err != nil {
		return err
	}
	out.note("inputs generated in %.2fs", time.Since(t0).Seconds())
	c := newClient()
	d, err := setup(ctx, env, c, seams{}, out)
	if err != nil {
		return err
	}
	defer d.close()
	var run *streamRun
	var driveErr error
	if _, err := snapshotPhase(ctx, c, d, "stream", out, func() error {
		run, driveErr = driveStream(ctx, in, c, d, env.seconds)
		return nil
	}); err != nil {
		return err
	}
	// The live heap is read with the daemon and its caches still up.
	heap := liveHeapMB()
	if err := d.close(); err != nil {
		return fmt.Errorf("close daemon: %w", err)
	}
	if driveErr != nil {
		return driveErr
	}
	reportStream(run, in, env.seconds, heap, out)
	return checkStream(ctx, env, in, run, out)
}

// reportStream derives the end-to-end metrics: phase A's p50s and phase
// B's rate are medians over sub-windows of each phase (see subWindows).
func reportStream(run *streamRun, in *streamInputs, dur time.Duration, heap float64, out *outcome) {
	lat, latAt := run.phaseA()
	spanA, _ := phaseSpans(dur)
	spanB := run.bEnd.Sub(run.bStart)
	var ones []float64
	var satAt []time.Duration
	for k := run.phaseB; k < len(run.arrivals); k++ {
		if !run.arrivals[k].After(run.bEnd) {
			ones = append(ones, 1)
			satAt = append(satAt, run.arrivals[k].Sub(run.bStart))
		}
	}
	rate := float64(len(ones)) / spanB.Seconds()
	tv, tp, tn := tail(lat)
	out.add("p50_ms", windowMedian(spanA, latAt, lat, p50), "ms")
	out.add("throughput_per_s", windowMedian(spanB, satAt, ones, rateOver(spanB)), "1/s")
	out.add("second_p50_ms", windowMedian(spanA, run.ackAt, run.acks, p50), "ms")
	out.figure("peak_rss_mb", peakRSSMB(), "MB")
	out.figure("live_heap_mb", heap, "MB")
	out.figure("stream_p50_ms", quantile(lat, 0.5), "ms")
	out.figure("stream_p99_ms", quantile(lat, 0.99), "ms")
	out.figure("stream_tail_ms", tv, "ms")
	out.figure("stream_sat_obs_per_s", rate, "1/s")
	out.note("stream: stream_tail_ms is p%g of %d phase A observations (%d beyond it); second_p50_ms is the phase A ingest acknowledgement", tp, len(lat), tn)
	out.note("stream: phase A %d observations at %.0f obs/s (generator late p50 %.3f ms, p99 %.3f ms, max %.3f ms); phase B %d observations",
		len(run.due), in.rate, quantile(run.lateness, 0.5), quantile(run.lateness, 0.99), quantile(run.lateness, 1), run.sent-run.phaseB)
}

// checkStream compares every verdict and the final state with a batch
// evaluation of the same observations, and the batch verdicts of the
// distinct observations with per-call references.
func checkStream(ctx context.Context, env *runEnv, in *streamInputs, run *streamRun, out *outcome) error {
	rm := env.catalog[streamModel]
	m, err := core.ModelFromDSL(rm.Name, rm.Source, nil)
	if err != nil {
		return err
	}
	corpus := make([]*counters.Observation, run.sent)
	for k := range corpus {
		corpus[k] = in.distinct[in.order[k]]
	}
	eng := engine.New()
	defer eng.Close()
	sess, err := eng.NewSession(m, engine.Config{Confidence: core.DefaultConfidence, Mode: stats.Correlated, IdentifyViolations: true})
	if err != nil {
		return err
	}
	res, err := sess.Evaluate(ctx, corpus)
	if err != nil {
		return err
	}
	want := engine.StateOf(res, core.DefaultConfidence)
	out.attempted += run.sent
	if len(run.verdicts) != run.sent || !run.closed {
		out.fail("stream: %d verdicts for %d observations (closed %v)", len(run.verdicts), run.sent, run.closed)
	}
	if run.final != want {
		out.fail("stream final state %+v, batch reference %+v", run.final, want)
	}
	for k, ev := range run.verdicts {
		if k >= len(res.Verdicts) {
			break
		}
		if r := refVerdict(res.Verdicts[k]); ev.Data.Feasible != r.Feasible || !equalStrings(ev.Data.Violations, r.Violations) {
			out.fail("stream verdict %d feasible=%v, batch reference %v", k, ev.Data.Feasible, r.Feasible)
		}
	}
	refs := make([]error, streamDistinct)
	parallel(streamDistinct, func(i int) {
		v, err := m.TestObservation(in.distinct[i], core.DefaultConfidence, stats.Correlated, true)
		if err != nil {
			refs[i] = err
			return
		}
		for k := 0; k < run.sent; k++ {
			if in.order[k] == i {
				if r := refVerdict(res.Verdicts[k]); r.Feasible != v.Feasible {
					refs[i] = fmt.Errorf("batch verdict %v, per-call reference %v", r.Feasible, v.Feasible)
				}
				return
			}
		}
	})
	for i, err := range refs {
		if err != nil {
			out.fail("stream observation %d: %v", i, err)
		}
	}
	return ctx.Err()
}
