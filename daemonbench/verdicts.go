package main

// The verdicts workload: a closed loop with two clients sharing the
// daemon. The reader tests fresh derived observations against the
// restricted reader models (POST /test, and /evaluate with small
// corpora), resending a fixed share of earlier bodies byte for byte; the
// writer registers a never-seen Haswell feature combination, describes it
// (cone deduction) and tests it. Every verdict is checked afterwards
// against a per-call reference computed outside the engine (see
// referenceVerdict); writer verdicts against core.Model.TestObservation.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/stats"
)

// The reader's request mix is a fixed pattern, so every run has the same
// proportions and only the observations vary by seed. The shares are
// chosen, not measured: no trace of expert sessions gives them. A repeat
// share keeps the verdict-cache hit path in the measured mix next to the
// misses, and an /evaluate share keeps the corpus path in it.
const (
	// Every repeatEvery-th reader request resends the body of the fresh
	// request before it byte for byte (25%, a verdict-cache hit).
	repeatEvery = 4
	// Every evaluateEvery-th fresh request is an /evaluate call over
	// evaluateSize observations (20%); the rest are single /test calls.
	// Fresh requests cycle through the reader models in order.
	evaluateEvery = 5
	evaluateSize  = 4
	// writerCombos bounds the never-seen combinations prepared per run.
	writerCombos = 240
	// requestTimeout bounds one request of any workload.
	requestTimeout = 60 * time.Second
)

// Observation stream ids (see runEnv.rng and obsPool.stream).
const (
	streamReaderObs = iota + 1
	streamWriterObs
	streamStreamObs
	streamExploreObs
)

// readerOp is one reader request.
type readerOp struct {
	model    string // catalogue name
	evaluate bool
	first, n int           // observations [first, first+n) of the reader stream
	repeatOf int           // index of the op whose body this resends; -1 if fresh
	at       time.Duration // sent at, from the start of the drive
	body     []byte
	latency  time.Duration
	resp     []byte
	err      error
}

// writerOp is one register→describe→test cycle.
type writerOp struct {
	model   restrictedModel
	latency time.Duration
	desc    describeJSON
	resp    []byte
	err     error
}

// verdictsInputs are the seeded inputs of the workload.
type verdictsInputs struct {
	pool   *obsPool
	combos []restrictedModel
}

func newVerdictsInputs(env *runEnv) (*verdictsInputs, error) {
	pool, err := newObsPool()
	if err != nil {
		return nil, err
	}
	return &verdictsInputs{pool: pool, combos: featureCombos(env.catalog, writerCombos)}, nil
}

// verdictsRun is what one drive of the workload sent and received.
type verdictsRun struct {
	reader  []readerOp
	writer  []writerOp
	elapsed time.Duration
}

// verdictJSON / corpusJSON decode the daemon's verdict answers.
type verdictJSON struct {
	Observation string   `json:"observation"`
	Feasible    bool     `json:"feasible"`
	Violations  []string `json:"violations"`
}

type corpusJSON struct {
	Total      int           `json:"total"`
	Infeasible int           `json:"infeasible"`
	Verdicts   []verdictJSON `json:"verdicts"`
}

// driveVerdicts runs reader and writer against d for dur.
func driveVerdicts(ctx context.Context, env *runEnv, in *verdictsInputs, c *http.Client, d *daemon, dur time.Duration) *verdictsRun {
	run := &verdictsRun{}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	var panics [2]any
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer func() { panics[0] = recover() }()
		run.reader = readerLoop(ctx, env, in, c, d, start, deadline)
	}()
	go func() {
		defer wg.Done()
		defer func() { panics[1] = recover() }()
		run.writer = writerLoop(ctx, env, in, c, d, deadline)
	}()
	wg.Wait()
	run.elapsed = time.Since(start)
	// Re-raised here, where the run's own recovery closes the daemons.
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	return run
}

func readerLoop(ctx context.Context, env *runEnv, in *verdictsInputs, c *http.Client, d *daemon, start, deadline time.Time) []readerOp {
	obs := in.pool.stream(env.seed*31 + streamReaderObs)
	next := 0 // next reader observation index
	fresh := 0
	var ops []readerOp
	for k := 0; time.Now().Before(deadline) && ctx.Err() == nil; k++ {
		op := readerOp{repeatOf: -1}
		if prev := len(ops) - 1; k%repeatEvery == repeatEvery-1 && ops[prev].body != nil {
			orig := ops[prev]
			op = readerOp{model: orig.model, evaluate: orig.evaluate, first: orig.first, n: orig.n, repeatOf: prev, body: orig.body}
		} else {
			op.model = readerModels[fresh%len(readerModels)]
			op.evaluate = fresh%evaluateEvery == evaluateEvery-1
			fresh++
			op.first, op.n = next, 1
			if op.evaluate {
				op.n = evaluateSize
			}
			corpus := make([]*counters.Observation, op.n)
			for i := range corpus {
				corpus[i] = obs.next()
			}
			next += op.n
			var err error
			if op.evaluate {
				op.body, err = json.Marshal(map[string]any{"observations": corpus})
			} else {
				op.body, err = json.Marshal(corpus[0])
			}
			if err != nil {
				op.err = err
				op.body = nil
				ops = append(ops, op)
				continue
			}
		}
		url := d.url + "/v1/models/" + restrictedName(op.model) + "/test"
		if op.evaluate {
			url = d.url + "/v1/models/" + restrictedName(op.model) + "/evaluate"
		}
		op.at = time.Since(start)
		rctx, cancel := context.WithTimeout(ctx, requestTimeout)
		cl, err := do(rctx, c, "POST", url, "application/json", op.body)
		cancel()
		op.latency, op.resp, op.err = cl.latency, cl.body, err
		// Only the latest request's body can be resent.
		if len(ops) > 0 {
			ops[len(ops)-1].body = nil
		}
		if op.repeatOf >= 0 {
			op.body = nil
		}
		ops = append(ops, op)
	}
	if len(ops) > 0 {
		ops[len(ops)-1].body = nil
	}
	return ops
}

func writerLoop(ctx context.Context, env *runEnv, in *verdictsInputs, c *http.Client, d *daemon, deadline time.Time) []writerOp {
	obs := in.pool.stream(env.seed*31 + streamWriterObs)
	var ops []writerOp
	for i := 0; i < len(in.combos) && time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		op := writerOp{model: in.combos[i]}
		o := obs.next()
		start := time.Now()
		op.err = func() error {
			rctx, cancel := context.WithTimeout(ctx, requestTimeout)
			defer cancel()
			if _, err := doJSON(rctx, c, "POST", d.url+"/v1/models",
				map[string]string{"name": op.model.Name, "source": op.model.Source}, nil); err != nil {
				return fmt.Errorf("register: %w", err)
			}
			if _, err := doJSON(rctx, c, "GET", d.url+"/v1/models/"+op.model.Name, nil, &op.desc); err != nil {
				return fmt.Errorf("describe: %w", err)
			}
			body, err := json.Marshal(o)
			if err != nil {
				return err
			}
			cl, err := do(rctx, c, "POST", d.url+"/v1/models/"+op.model.Name+"/test?identify=false", "application/json", body)
			op.resp = cl.body
			return err
		}()
		op.latency = time.Since(start)
		ops = append(ops, op)
	}
	return ops
}

func runVerdicts(ctx context.Context, env *runEnv, out *outcome) error {
	t0 := time.Now()
	in, err := newVerdictsInputs(env)
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
	var run *verdictsRun
	if _, err := snapshotPhase(ctx, c, d, "verdicts", out, func() error {
		run = driveVerdicts(ctx, env, in, c, d, env.seconds)
		return nil
	}); err != nil {
		return err
	}
	// The live heap is read with the daemon and its caches still up.
	heap := liveHeapMB()
	if err := d.close(); err != nil {
		return fmt.Errorf("close daemon: %w", err)
	}
	reportVerdicts(run, env.seconds, heap, out)
	t0 = time.Now()
	defer func() { out.note("outputs checked in %.2fs", time.Since(t0).Seconds()) }()
	return checkVerdicts(ctx, env, in, run, out)
}

// reportVerdicts derives the end-to-end metrics from one drive: the
// reader's p50 and rate are medians over sub-windows (see subWindows).
func reportVerdicts(run *verdictsRun, span time.Duration, heap float64, out *outcome) {
	var lat, counts []float64
	var at []time.Duration
	verdicts := 0
	for _, op := range run.reader {
		if op.err == nil {
			lat = append(lat, ms(op.latency))
			counts = append(counts, float64(op.n))
			at = append(at, op.at)
			verdicts += op.n
		}
	}
	var reg []float64
	for _, op := range run.writer {
		if op.err == nil {
			reg = append(reg, ms(op.latency))
		}
	}
	tv, tp, tn := tail(lat)
	rv, rp, rn := tail(reg)
	rate := float64(verdicts) / run.elapsed.Seconds()
	out.add("p50_ms", windowMedian(span, at, lat, p50), "ms")
	out.add("throughput_per_s", windowMedian(span, at, counts, rateOver(span)), "1/s")
	out.add("second_p50_ms", quantile(reg, 0.5), "ms")
	out.figure("peak_rss_mb", peakRSSMB(), "MB")
	out.figure("live_heap_mb", heap, "MB")
	out.figure("verdict_p50_ms", quantile(lat, 0.5), "ms")
	out.figure("verdict_p99_ms", quantile(lat, 0.99), "ms")
	out.figure("verdicts_per_s", rate, "1/s")
	out.figure("register_p50_ms", quantile(reg, 0.5), "ms")
	out.figure("register_tail_ms", rv, "ms")
	out.figure("verdict_tail_ms", tv, "ms")
	out.note("verdicts: verdict_tail_ms is p%g of %d reader requests (%d beyond it); register_tail_ms is p%g of %d writer cycles (%d beyond it)",
		tp, len(lat), tn, rp, len(reg), rn)
	out.note("verdicts: %d reader requests returned %d verdicts; %d writer cycles", len(run.reader), verdicts, len(run.writer))
	var test, eval, rep []float64
	for _, op := range run.reader {
		switch {
		case op.err != nil:
		case op.repeatOf >= 0:
			rep = append(rep, ms(op.latency))
		case op.evaluate:
			eval = append(eval, ms(op.latency))
		default:
			test = append(test, ms(op.latency))
		}
	}
	out.note("verdicts: reader p25/p50/p75 ms: fresh /test %.2f/%.2f/%.2f (%d), /evaluate %.2f/%.2f/%.2f (%d), repeats %.2f/%.2f/%.2f (%d)",
		quantile(test, .25), quantile(test, .5), quantile(test, .75), len(test),
		quantile(eval, .25), quantile(eval, .5), quantile(eval, .75), len(eval),
		quantile(rep, .25), quantile(rep, .5), quantile(rep, .75), len(rep))
}

// checkVerdicts compares every answer with a per-call reference verdict
// and counts the attempted and failed operations.
func checkVerdicts(ctx context.Context, env *runEnv, in *verdictsInputs, run *verdictsRun, out *outcome) error {
	refModels := map[string]*core.Model{}
	for _, name := range readerModels {
		rm := env.catalog[name]
		m, err := core.ModelFromDSL(rm.Name, rm.Source, nil)
		if err != nil {
			return err
		}
		if _, err := m.Constraints(); err != nil {
			return err
		}
		refModels[name] = m
	}
	// Regenerate the reader's observations in send order.
	total := 0
	for _, op := range run.reader {
		if op.repeatOf < 0 && op.first+op.n > total {
			total = op.first + op.n
		}
	}
	readerObs := make([]*counters.Observation, total)
	s := in.pool.stream(env.seed*31 + streamReaderObs)
	for i := range readerObs {
		readerObs[i] = s.next()
	}
	writerObs := make([]*counters.Observation, len(run.writer))
	s = in.pool.stream(env.seed*31 + streamWriterObs)
	for i := range writerObs {
		writerObs[i] = s.next()
	}

	readerErrs := make([]error, len(run.reader))
	writerErrs := make([]error, len(run.writer))
	wants := make([][]verdictJSON, len(run.reader))
	parallel(len(run.reader), func(i int) {
		op := run.reader[i]
		if op.repeatOf >= 0 {
			return
		}
		if op.err != nil {
			readerErrs[i] = op.err
			return
		}
		for _, o := range readerObs[op.first : op.first+op.n] {
			v, err := referenceVerdict(refModels[op.model], o, i%exactEvery == 0)
			if err != nil {
				readerErrs[i] = err
				return
			}
			wants[i] = append(wants[i], refVerdict(v))
		}
		readerErrs[i] = compareVerdicts(op.evaluate, op.resp, wants[i])
	})
	// A repeat must get the answer its original's reference predicts.
	for i, op := range run.reader {
		switch {
		case op.repeatOf < 0:
		case op.err != nil:
			readerErrs[i] = op.err
		case wants[op.repeatOf] == nil:
			readerErrs[i] = fmt.Errorf("repeat of unchecked request %d", op.repeatOf)
		default:
			readerErrs[i] = compareVerdicts(op.evaluate, op.resp, wants[op.repeatOf])
		}
	}
	parallel(len(run.writer), func(i int) {
		op := run.writer[i]
		if op.err != nil {
			writerErrs[i] = op.err
			return
		}
		writerErrs[i] = checkWriter(op, writerObs[i])
	})
	for i, err := range readerErrs {
		out.attempted++
		if err != nil {
			out.fail("reader request %d (%s): %v", i, run.reader[i].model, err)
		}
	}
	for i, err := range writerErrs {
		out.attempted++
		if err != nil {
			out.fail("writer cycle %d (%s): %v", i, run.writer[i].model.Name, err)
		}
	}
	return ctx.Err()
}

// exactEvery: every exactEvery-th reader request's reference is also
// computed by the exact simplex alone (core.Model.TestObservation).
const exactEvery = 10

// referenceVerdict decides o against m per call, outside the engine, its
// caches and the HTTP stack: a fresh confidence region and a fresh
// two-tier core.Solver, whose answer is the exact solver's by
// construction (a float-filter claim counts only with an exactly verified
// certificate; otherwise the exact simplex decides). With exact set the
// verdict is also computed by core.Model.TestObservation, and the two
// references must agree.
func referenceVerdict(m *core.Model, o *counters.Observation, exact bool) (*core.Verdict, error) {
	r, err := stats.NewRegion(o.Project(m.Set), core.DefaultConfidence, stats.Correlated)
	if err != nil {
		return nil, err
	}
	v, err := m.TestRegionSolver(core.NewSolver(nil), r, true)
	if err != nil {
		return nil, err
	}
	v.Observation = o.Label
	if exact {
		ev, err := m.TestObservation(o, core.DefaultConfidence, stats.Correlated, true)
		if err != nil {
			return nil, err
		}
		if a, b := refVerdict(v), refVerdict(ev); a.Feasible != b.Feasible || !equalStrings(a.Violations, b.Violations) {
			return nil, fmt.Errorf("two-tier reference %v disagrees with the exact simplex %v on %s", a.Feasible, b.Feasible, o.Label)
		}
	}
	return v, nil
}

func checkWriter(op writerOp, o *counters.Observation) error {
	m, err := core.ModelFromDSL(op.model.Name, op.model.Source, nil)
	if err != nil {
		return err
	}
	var names []string
	for _, e := range m.Set.Events() {
		names = append(names, string(e))
	}
	if op.desc.NumPaths != m.NumPaths() || op.desc.NumCone != len(m.Cone().Generators) ||
		fmt.Sprint(op.desc.Counters) != fmt.Sprint(names) || len(op.desc.Constraints) == 0 {
		return fmt.Errorf("describe mismatch: %d paths/%d generators/%d constraints, want %d/%d/>0",
			op.desc.NumPaths, op.desc.NumCone, len(op.desc.Constraints), m.NumPaths(), len(m.Cone().Generators))
	}
	v, err := m.TestObservation(o, core.DefaultConfidence, stats.Correlated, false)
	if err != nil {
		return err
	}
	return compareVerdicts(false, op.resp, []verdictJSON{refVerdict(v)})
}

func refVerdict(v *core.Verdict) verdictJSON {
	out := verdictJSON{Observation: v.Observation, Feasible: v.Feasible}
	for _, k := range v.Violations {
		out.Violations = append(out.Violations, k.String())
	}
	return out
}

// compareVerdicts decodes a /test or /evaluate answer and compares it
// verdict by verdict with want.
func compareVerdicts(evaluate bool, resp []byte, want []verdictJSON) error {
	var got []verdictJSON
	if evaluate {
		var cj corpusJSON
		if err := json.Unmarshal(resp, &cj); err != nil {
			return err
		}
		got = cj.Verdicts
		inf := 0
		for _, w := range want {
			if !w.Feasible {
				inf++
			}
		}
		if cj.Total != len(want) || cj.Infeasible != inf {
			return fmt.Errorf("corpus totals %d/%d, want %d/%d", cj.Infeasible, cj.Total, inf, len(want))
		}
	} else {
		var v verdictJSON
		if err := json.Unmarshal(resp, &v); err != nil {
			return err
		}
		got = []verdictJSON{v}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d verdicts, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Observation != w.Observation || g.Feasible != w.Feasible || !equalStrings(g.Violations, w.Violations) {
			return fmt.Errorf("verdict %q feasible=%v violations=%v, reference feasible=%v violations=%v",
				g.Observation, g.Feasible, g.Violations, w.Feasible, w.Violations)
		}
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// parallel runs f(0..n-1) on runtime.NumCPU() goroutines and waits.
func parallel(n int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
