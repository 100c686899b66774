package main

// The traced run (--trace 1). Each workload first drives an untraced
// daemon and then a traced one (seam, handler and transport decorators)
// on the same inputs for half the run each — the difference is the
// tracing overhead — and then replays the traced daemon's inputs through
// each layer's public functions, one request at a time, under spans. Per
// layer it reports calls, total self time and median self time; counts
// come from /stats deltas around the traced phase.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/explore"
	"repro/internal/haswell"
	"repro/internal/mudd"
	"repro/internal/perfdb"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// spanLayers are the span names reported as <name>.calls, .self_ms and
// .p50_ms on every traced run (zero where a workload never reaches the
// layer).
var spanLayers = []string{
	"dsl.compile", "mudd.paths", "core.new_model", "cone.deduce",
	"stats.region", "core.region_lp", "core.hash_lp", "core.solve",
	"engine.test", "engine.evaluate", "engine.batch", "engine.ingest",
	"sweep.base_corpus", "sweep.plan", "sweep.decode_class", "explore.node",
	"jobs.queue_wait", "jobs.run",
	"jobstore.submit", "jobstore.append", "jobstore.finish", "perfdb.get", "perfdb.put",
	"server.handler", "server.net", "server.register",
}

// Replay sizes: how much of the traced phase's traffic is replayed layer
// by layer.
const (
	replayReader = 150
	replayWriter = 12
	replayStream = 200
)

// replayer holds the in-process layer instances a replay calls into.
type replayer struct {
	t       *tracer
	eng     *engine.Engine
	store   *perfdb.VerdictStore
	regions *stats.RegionBuilder
	sv      *core.Solver
	solver  core.SolverStats

	constraints int
	mismatches  int
}

func newReplayer(t *tracer, dir string) (*replayer, error) {
	vs, err := perfdb.OpenVerdictStore(filepath.Join(dir, "replay-verdicts.db"))
	if err != nil {
		return nil, err
	}
	r := &replayer{t: t, store: vs, regions: stats.NewRegionBuilder()}
	r.sv = core.NewSolver(&r.solver)
	r.eng = engine.New(engine.WithWorkers(runtime.GOMAXPROCS(0)), engine.WithVerdictStore(tracedStore{t, vs}))
	return r, nil
}

func (r *replayer) close() error {
	r.eng.Close()
	return r.store.Close()
}

// serviceConfig is the daemon's default per-request evaluation
// configuration.
var serviceConfig = engine.Config{Confidence: core.DefaultConfidence, Mode: stats.Correlated, IdentifyViolations: true, EphemeralObservations: true}

// buildModel compiles src the way the registry does, one span per layer.
func (r *replayer) buildModel(parent int64, name, src string, set *counters.Set) (*core.Model, error) {
	var d *mudd.Diagram
	var m *core.Model
	err := r.t.run("dsl.compile", parent, func(int64) (err error) {
		d, err = dsl.Compile(name, src)
		return err
	})
	if err == nil {
		err = r.t.run("mudd.paths", parent, func(int64) error {
			_, err := d.Paths()
			return err
		})
	}
	if err == nil {
		err = r.t.run("core.new_model", parent, func(int64) (err error) {
			m, err = core.NewModel(name, d, set)
			return err
		})
	}
	return m, err
}

// deduce runs cone deduction under a span and counts the constraints.
func (r *replayer) deduce(parent int64, m *core.Model) error {
	return r.t.run("cone.deduce", parent, func(int64) error {
		h, err := m.Constraints()
		if err == nil {
			r.constraints += len(h.All())
		}
		return err
	})
}

// layerVerdict decides one observation through the layer functions the
// engine composes: confidence region, LP build, canonical hash, solve.
func (r *replayer) layerVerdict(parent int64, m *core.Model, o *counters.Observation, identify bool) (*core.Verdict, error) {
	var reg *stats.Region
	err := r.t.run("stats.region", parent, func(int64) (err error) {
		reg, err = r.regions.RegionUncached(o, m.Set, core.DefaultConfidence, stats.Correlated)
		return err
	})
	if err != nil {
		return nil, err
	}
	p := r.sv.Exact.Prepare(0)
	if err := r.t.run("core.region_lp", parent, func(int64) error { return m.RegionLP(p, reg) }); err != nil {
		return nil, err
	}
	r.t.run("core.hash_lp", parent, func(int64) error {
		core.HashLP(p)
		return nil
	})
	var v *core.Verdict
	err = r.t.run("core.solve", parent, func(int64) (err error) {
		v, err = m.TestRegionLP(r.sv, p, reg, identify)
		return err
	})
	if v != nil {
		v.Observation = o.Label
	}
	return v, err
}

// agree counts a replayed verdict that differs from the daemon's answer.
func (r *replayer) agree(v *core.Verdict, got verdictJSON) {
	if want := refVerdict(v); want.Feasible != got.Feasible || !equalStrings(want.Violations, got.Violations) {
		r.mismatches++
	}
}

// traceEnv bundles what a traced run needs.
type traceEnv struct {
	t  *tracer
	rp *replayer
}

func newTraceEnv(env *runEnv) (*traceEnv, error) {
	t := &tracer{}
	rp, err := newReplayer(t, env.tmpRoot)
	if err != nil {
		return nil, err
	}
	return &traceEnv{t: t, rp: rp}, nil
}

// finish closes the replayer, writes the spans out and reports the
// per-layer metrics. base is the /stats delta of the traced phase;
// overhead the traced-vs-untraced slowdown in percent.
func (te *traceEnv) finish(env *runEnv, workload string, base statsDelta, overhead, genLate float64, out *outcome) error {
	if err := te.rp.close(); err != nil {
		return err
	}
	handler, net, register := te.t.serverNet()
	layers := te.t.layers()
	layers["server.handler"] = summarise(handler)
	layers["server.net"] = summarise(net)
	layers["server.register"] = summarise(register)
	for _, name := range spanLayers {
		l := layers[name]
		out.add(name+".calls", float64(l.calls), "count")
		out.add(name+".self_ms", l.selfMS, "ms")
		out.add(name+".p50_ms", l.p50MS, "ms")
	}
	cov, low, roots := te.t.coverage()
	out.add("cone.constraints", float64(te.rp.constraints), "count")
	out.add("solver.evaluations", float64(base.evaluations), "count")
	out.add("solver.filter_hit_ratio", ratio(base.filterHits, base.evaluations), "ratio")
	out.add("solver.cert_failures", float64(base.certFailures), "count")
	out.add("solver.exact_fallbacks", float64(base.exactFallbacks), "count")
	out.add("solver.kernel_promotions", float64(base.kernelPromotions), "count")
	out.add("solver.warm_solves", float64(base.warmSolves), "count")
	out.add("solver.cold_solves", float64(base.coldSolves), "count")
	out.add("engine.verdict_lookups", float64(base.verdictLookups), "count")
	out.add("engine.verdict_hit_ratio", ratio(base.verdictHits, base.verdictLookups), "ratio")
	out.add("engine.evictions", float64(base.evictions), "count")
	out.add("sweep.cells_planned", float64(base.cellsPlanned), "count")
	out.add("sweep.evaluations_avoided", base.avoided(), "ratio")
	out.add("explore.nodes", float64(layers["explore.node"].calls), "count")
	out.add("jobstore.bytes", float64(base.journalBytes), "bytes")
	out.add("streams.queue_high_water", float64(base.queueHighWater), "count")
	out.add("streams.dropped", float64(base.dropped), "count")
	out.add("streams.rejected", float64(base.rejected), "count")
	out.add("streams.daemon_p99_us", base.streamP99us, "us")
	out.add("bench.gen_late_ms", genLate, "ms")
	out.add("trace.coverage_pct", 100*cov, "%")
	out.add("trace.coverage_min_pct", 100*low, "%")
	out.add("trace.overhead_pct", overhead, "%")
	out.add("trace.spans", float64(len(te.t.spans)), "count")
	out.note("trace: %d replayed requests, spans cover %.1f%% of their wall time (lowest %.1f%%); tracing overhead %+.1f%%",
		roots, 100*cov, 100*low, overhead)
	out.note("trace: replay solver (not on /stats): %d evaluations, filter hits %d/%d, exact fallbacks %d",
		te.rp.solver.Snapshot().Evaluations, te.rp.solver.Snapshot().FilterHits(), te.rp.solver.Snapshot().Evaluations,
		te.rp.solver.Snapshot().ExactFallbacks)
	if te.rp.mismatches > 0 {
		out.fail("%d replayed verdicts differ from the daemon's", te.rp.mismatches)
	}
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, env.seed))
	if err := te.t.writeSpans(path); err != nil {
		return err
	}
	out.note("trace: spans written to %s", path)
	return nil
}

// overheadPct is the traced phase's slowdown over the untraced one.
func overheadPct(untraced, traced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return 100 * (traced/untraced - 1)
}

// bootPair boots an untraced and a traced daemon in turn: run gets the
// untraced one first, then the traced one with its /stats delta.
func bootPair(ctx context.Context, env *runEnv, te *traceEnv, out *outcome,
	plain func(c0 *clientDaemon) error, traced func(c1 *clientDaemon) error) (statsDelta, error) {
	c := newClient()
	d0, _, err := setupOnce(ctx, env, c, seams{})
	if err != nil {
		return statsDelta{}, err
	}
	err = plain(&clientDaemon{c, d0})
	if cerr := d0.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return statsDelta{}, err
	}
	tc := te.t.client()
	d1, _, err := setupOnce(ctx, env, tc, te.t.seams())
	if err != nil {
		return statsDelta{}, err
	}
	defer d1.close()
	dl, err := snapshotPhase(ctx, tc, d1, "traced", out, func() error { return traced(&clientDaemon{tc, d1}) })
	if err != nil {
		return dl, err
	}
	return dl, d1.close()
}

// clientDaemon is a daemon with the client that drives it.
type clientDaemon struct {
	c *http.Client
	d *daemon
}

func traceVerdicts(ctx context.Context, env *runEnv, out *outcome) error {
	in, err := newVerdictsInputs(env)
	if err != nil {
		return err
	}
	te, err := newTraceEnv(env)
	if err != nil {
		return err
	}
	var plain, traced *verdictsRun
	half := env.seconds / 2
	base, err := bootPair(ctx, env, te, out,
		func(cd *clientDaemon) error { plain = driveVerdicts(ctx, env, in, cd.c, cd.d, half); return nil },
		func(cd *clientDaemon) error { traced = driveVerdicts(ctx, env, in, cd.c, cd.d, half); return nil })
	if err != nil {
		te.rp.close()
		return err
	}
	for _, op := range traced.reader {
		out.attempted++
		if op.err != nil {
			out.fail("traced reader request: %v", op.err)
		}
	}
	for _, op := range traced.writer {
		out.attempted++
		if op.err != nil {
			out.fail("traced writer cycle: %v", op.err)
		}
	}
	overhead := overheadPct(readerP50(plain), readerP50(traced))
	if err := replayVerdicts(ctx, env, in, te.rp, traced); err != nil {
		te.rp.close()
		return err
	}
	return te.finish(env, "verdicts", base, overhead, 0, out)
}

func readerP50(run *verdictsRun) float64 {
	var lat []float64
	for _, op := range run.reader {
		if op.err == nil {
			lat = append(lat, ms(op.latency))
		}
	}
	return median(lat)
}

// replayVerdicts replays the first reader requests and writer cycles of
// the traced phase: each reader request through the layer functions and
// then through the engine, each writer cycle through compile, paths,
// model, deduction and a test.
func replayVerdicts(ctx context.Context, env *runEnv, in *verdictsInputs, rp *replayer, run *verdictsRun) error {
	models := map[string]*core.Model{}
	for _, name := range readerModels {
		rm := env.catalog[name]
		m, err := core.ModelFromDSL(rm.Name, rm.Source, nil)
		if err != nil {
			return err
		}
		if _, err := m.Constraints(); err != nil {
			return err
		}
		models[name] = m
	}
	s := in.pool.stream(env.seed*31 + streamReaderObs)
	var obs []*counters.Observation
	for i, op := range run.reader {
		if i == replayReader {
			break
		}
		for op.first+op.n > len(obs) {
			obs = append(obs, s.next())
		}
		if op.err != nil {
			continue
		}
		m := models[op.model]
		corpus := obs[op.first : op.first+op.n]
		var got []verdictJSON
		if op.evaluate {
			var cj corpusJSON
			if err := json.Unmarshal(op.resp, &cj); err != nil {
				return err
			}
			got = cj.Verdicts
		} else {
			var v verdictJSON
			if err := json.Unmarshal(op.resp, &v); err != nil {
				return err
			}
			got = []verdictJSON{v}
		}
		if err := rp.t.root("replay.verdict", func(id int64) error {
			for k, o := range corpus {
				v, err := rp.layerVerdict(id, m, o, true)
				if err != nil {
					return err
				}
				if k < len(got) {
					rp.agree(v, got[k])
				}
			}
			return nil
		}); err != nil {
			return err
		}
		sess, err := rp.eng.SessionFor(m, serviceConfig)
		if err != nil {
			return err
		}
		if err := rp.t.root("replay.engine", func(id int64) error {
			if op.evaluate {
				return rp.t.run("engine.evaluate", id, func(int64) error {
					_, err := sess.Evaluate(ctx, corpus)
					return err
				})
			}
			return rp.t.run("engine.test", id, func(int64) error {
				_, err := sess.Test(ctx, corpus[0])
				return err
			})
		}); err != nil {
			return err
		}
	}
	ws := in.pool.stream(env.seed*31 + streamWriterObs)
	for i, op := range run.writer {
		if i == replayWriter {
			break
		}
		o := ws.next()
		if op.err != nil {
			continue
		}
		var got verdictJSON
		if err := json.Unmarshal(op.resp, &got); err != nil {
			return err
		}
		if err := rp.t.root("replay.register", func(id int64) error {
			m, err := rp.buildModel(id, op.model.Name, op.model.Source, nil)
			if err != nil {
				return err
			}
			if err := rp.deduce(id, m); err != nil {
				return err
			}
			v, err := rp.layerVerdict(id, m, o, false)
			if err != nil {
				return err
			}
			rp.agree(v, got)
			return nil
		}); err != nil {
			return err
		}
	}
	return ctx.Err()
}

func traceJobs(ctx context.Context, env *runEnv, out *outcome) error {
	in, err := newJobsInputs(env)
	if err != nil {
		return err
	}
	te, err := newTraceEnv(env)
	if err != nil {
		return err
	}
	var plain, traced []jobRun
	pair := func(cd *clientDaemon) []jobRun {
		return []jobRun{runJob(ctx, cd.c, cd.d, in.job(0)), runJob(ctx, cd.c, cd.d, in.job(1))}
	}
	base, err := bootPair(ctx, env, te, out,
		func(cd *clientDaemon) error { plain = pair(cd); return nil },
		func(cd *clientDaemon) error { traced = pair(cd); return nil })
	if err != nil {
		te.rp.close()
		return err
	}
	var tPlain, tTraced float64
	for k, r := range traced {
		out.attempted++
		if _, err := checkJobShape(r); err != nil {
			out.fail("traced %s job: %v", r.spec.kind, err)
			continue
		}
		tPlain += plain[k].took.Seconds()
		tTraced += r.took.Seconds()
		st := r.status
		if st.Started != nil && st.Finished != nil {
			te.t.add(span{Name: "jobs.queue_wait", Start: st.Created, End: *st.Started})
			te.t.add(span{Name: "jobs.run", Start: *st.Started, End: *st.Finished})
		}
	}
	if out.failed == 0 {
		for _, r := range traced {
			replay := replayExplore
			if r.spec.kind == "sweep" {
				replay = replaySweep
			}
			if err := replay(ctx, te.rp, r); err != nil {
				te.rp.close()
				return err
			}
		}
	}
	return te.finish(env, "jobs", base, overheadPct(tPlain, tTraced), 0, out)
}

// replaySweep runs the sweep pipeline stage by stage: base corpus, model,
// plan, then one decode and one batch evaluation per behaviour class,
// comparing each class verdict with the daemon's cells.
func replaySweep(ctx context.Context, rp *replayer, r jobRun) error {
	var res struct {
		Cells []struct {
			Class      int `json:"class"`
			Feasible   int `json:"feasible"`
			Infeasible int `json:"infeasible"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(r.status.Result, &res); err != nil {
		return err
	}
	return rp.t.root("replay.sweep", func(id int64) error {
		var base []*counters.Observation
		if err := rp.t.run("sweep.base_corpus", id, func(int64) (err error) {
			base, err = sweep.BuildBaseCorpus(ctx, sweep.BaseSpec{Seed: r.spec.seed})
			return err
		}); err != nil {
			return err
		}
		feats := haswell.DiscoveredModelFeatures()
		feats.WalkBypass = false
		model, err := rp.buildModel(id, "sweep/walker-reference", haswell.GenerateDSL(feats), haswell.AnalysisSet())
		if err != nil {
			return err
		}
		var dec *sweep.Decoder
		var plan []sweep.Class
		cells := sweep.DefaultGrid().Cells()
		if err := rp.t.run("sweep.plan", id, func(int64) (err error) {
			if dec, err = sweep.NewDecoder(r.spec.seed, base, model.Set); err == nil {
				plan = dec.Plan(cells)
			}
			return err
		}); err != nil {
			return err
		}
		sess, err := rp.eng.NewSession(model, engine.Config{Confidence: core.DefaultConfidence, Mode: stats.Correlated, EphemeralObservations: true})
		if err != nil {
			return err
		}
		for k, cl := range plan {
			var dv *sweep.Derived
			rp.t.run("sweep.decode_class", id, func(int64) error {
				dv = dec.DecodeClass(cells[cl.Cells[0]])
				return nil
			})
			var f, inf int
			err := rp.t.run("engine.batch", id, func(int64) (err error) {
				f, inf, err = sess.EvaluateBatch(ctx, dv.Corpus)
				return err
			})
			dec.Release(dv)
			if err != nil {
				return err
			}
			c := res.Cells[cl.Cells[0]]
			if c.Class != k || c.Feasible != f || c.Infeasible != inf {
				rp.mismatches++
			}
		}
		return nil
	})
}

// replayExplore re-evaluates the explore job's nodes in event order on a
// sequential search, each node under a span, the builder's compile,
// paths and model construction under their own.
func replayExplore(ctx context.Context, rp *replayer, r jobRun) error {
	var body struct {
		Observations []*counters.Observation `json:"observations"`
	}
	if err := json.Unmarshal(r.spec.body, &body); err != nil {
		return err
	}
	set := haswell.AnalysisSet()
	var cur int64
	search := explore.NewSearch(func(fs explore.FeatureSet) (*core.Model, error) {
		f := haswell.SearchFeatures(func(name string) bool { return fs[name] })
		return rp.buildModel(cur, "search:"+fs.Key(), haswell.GenerateDSL(f), set)
	}, body.Observations)
	search.Engine = rp.eng
	search.IdentifyViolations = true
	search.Workers = 1
	search.Ctx = ctx
	return rp.t.root("replay.explore", func(id int64) error {
		for _, n := range r.nodes {
			err := rp.t.run("explore.node", id, func(nid int64) error {
				cur = nid
				node, err := search.Evaluate(explore.NewFeatureSet(n.Features...), "", "")
				if err == nil && (node.Infeasible != n.Infeasible || node.Total != n.Total) {
					rp.mismatches++
				}
				return err
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
}

func traceStream(ctx context.Context, env *runEnv, out *outcome) error {
	in, err := newStreamInputs(env)
	if err != nil {
		return err
	}
	te, err := newTraceEnv(env)
	if err != nil {
		return err
	}
	half := env.seconds / 2
	var plain, traced *streamRun
	base, err := bootPair(ctx, env, te, out,
		func(cd *clientDaemon) (err error) { plain, err = driveStream(ctx, in, cd.c, cd.d, half); return err },
		func(cd *clientDaemon) (err error) { traced, err = driveStream(ctx, in, cd.c, cd.d, half); return err })
	if err != nil {
		te.rp.close()
		return err
	}
	out.attempted += traced.sent
	if len(traced.verdicts) != traced.sent {
		out.fail("traced stream: %d verdicts for %d observations", len(traced.verdicts), traced.sent)
	}
	rm := env.catalog[streamModel]
	m, err := core.ModelFromDSL(rm.Name, rm.Source, nil)
	if err == nil {
		_, err = m.Constraints()
	}
	if err == nil {
		err = replayStreamObs(ctx, te.rp, in, m, traced)
	}
	if err != nil {
		te.rp.close()
		return err
	}
	return te.finish(env, "stream", base, overheadPct(streamP50(plain), streamP50(traced)), quantile(traced.lateness, 0.99), out)
}

func streamP50(run *streamRun) float64 {
	lat, _ := run.phaseA()
	return median(lat)
}

// replayStreamObs ingests the traced stream's first observations into an
// incremental session and decides each through the layer functions.
func replayStreamObs(ctx context.Context, rp *replayer, in *streamInputs, m *core.Model, run *streamRun) error {
	sess, err := rp.eng.NewSession(m, serviceConfig)
	if err != nil {
		return err
	}
	inc := sess.Incremental()
	defer inc.Close()
	for k := 0; k < replayStream && k < len(run.verdicts); k++ {
		o := in.distinct[in.order[k]]
		ev := run.verdicts[k].Data
		got := verdictJSON{Feasible: ev.Feasible, Violations: ev.Violations}
		if err := rp.t.root("replay.ingest", func(id int64) error {
			return rp.t.run("engine.ingest", id, func(int64) error {
				res, err := inc.Ingest(ctx, o)
				if err == nil {
					rp.agree(res.Verdict, got)
				}
				return err
			})
		}); err != nil {
			return err
		}
		if err := rp.t.root("replay.verdict", func(id int64) error {
			v, err := rp.layerVerdict(id, m, o, true)
			if err == nil {
				rp.agree(v, got)
			}
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}
