package main

// The jobs workload: a closed loop with one client and one job in flight.
// It alternates POST /v1/sweep (the default 384-cell grid, a distinct
// seed per job) and POST /v1/explore (the haswell-mmu catalogue over an
// uploaded seeded corpus), following each job on /v1/jobs/{id}/events to
// its terminal event. The daemon journals every job to its jobstore file
// and keeps verdicts in its perfdb store, both in the run's temp
// directory.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/haswell"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// Both kinds of job run their sequential pipeline ("workers": 1), whose
// results are bit-identical to the parallel one. On a 2-core machine the
// parallel sweep was both slower and less steady: in-process, seed 1001
// took 11.2–14.4 s in parallel against 9.6–10.4 s sequentially, because
// when a few heavy behaviour classes run decides the makespan.
//
// Sweep k of every run uses seed sweepSeedBase+1+k. A sweep's cost moves
// by ±25% with its seed (how many behaviour classes the exact solver must
// decide), and a run has room for two sweeps, so seeding them from the
// run's seed would make the metric follow the seed; with the fixed
// sequence every run scans the same grids. The explore corpus does follow
// the run's seed: a seeded subset of exploreRows sample rows of every
// observation of one fixed simulated corpus, so its content varies while
// its difficulty stays put. Every explore of a run submits that one
// corpus; an explore runs on a private engine, so a resubmission costs
// what the first did and must return the same result.
const (
	sweepSeedBase = 1000
	exploreRows   = 12
)

// jobSpec is one job submission.
type jobSpec struct {
	kind string // "sweep" or "explore"
	seed int64  // sweep seed
	body []byte
}

// jobRun is one followed job.
type jobRun struct {
	spec     jobSpec
	id       string
	took     time.Duration // submit → terminal event
	evalTook time.Duration // sweep: "planned" event → last "cell" event
	state    string
	cellEvts int
	nodes    []nodeJSON // explore: each evaluated node, in event order
	status   jobStatusJSON
	err      error
}

// nodeJSON is the part of an explore node event the benchmark checks.
type nodeJSON struct {
	Features   []string `json:"features"`
	Infeasible int      `json:"infeasible"`
	Total      int      `json:"total"`
}

type jobStatusJSON struct {
	ID       string          `json:"id"`
	Kind     string          `json:"kind"`
	State    string          `json:"state"`
	Error    string          `json:"error"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started"`
	Finished *time.Time      `json:"finished"`
	Result   json.RawMessage `json:"result"`
}

type sweepResultJSON struct {
	GridSize int               `json:"grid_size"`
	Cells    []json.RawMessage `json:"cells"`
}

type sweepCellJSON struct {
	Event      uint8 `json:"event"`
	Umask      uint8 `json:"umask"`
	Cmask      uint8 `json:"cmask"`
	Feasible   int   `json:"feasible"`
	Infeasible int   `json:"infeasible"`
	Consistent bool  `json:"consistent"`
}

// jobsInputs are the seeded job bodies, generated before timing.
type jobsInputs struct {
	explore []byte // explore request body
}

func newJobsInputs(env *runEnv) (*jobsInputs, error) {
	in := &jobsInputs{}
	spec := haswell.QuickCorpusSpec()
	spec.Samples = 2 * exploreRows
	base, err := haswell.BuildCorpus(spec)
	if err != nil {
		return nil, fmt.Errorf("explore corpus: %w", err)
	}
	set := haswell.AnalysisSet()
	rng := env.rng(streamExploreObs)
	corpus := make([]*counters.Observation, len(base))
	for i, b := range base {
		b = b.Project(set)
		idx := rng.Perm(b.Len())[:exploreRows]
		sort.Ints(idx)
		o := counters.NewObservation(b.Label, b.Set)
		for _, r := range idx {
			o.Append(b.Samples[r])
		}
		corpus[i] = o
	}
	in.explore, err = json.Marshal(map[string]any{"catalog": "haswell-mmu", "observations": corpus, "workers": 1})
	return in, err
}

// job returns the k-th submission of the loop: explores at even k, sweeps
// at odd k, so the loop's first metricJobs jobs hold the explores and
// sweeps the metrics summarise.
func (in *jobsInputs) job(k int) jobSpec {
	if k%2 == 1 {
		seed := int64(sweepSeedBase + 1 + k/2)
		body, _ := json.Marshal(map[string]int64{"seed": seed, "workers": 1}) // a map of ints always marshals
		return jobSpec{kind: "sweep", seed: seed, body: body}
	}
	return jobSpec{kind: "explore", body: in.explore}
}

// metricJobs is how many jobs, from the start of the loop, the metrics
// summarise: 3 explores and 2 sweeps. How many more fit in the run
// depends on the machine's speed at the time, and letting them in would
// change which grids the medians cover from run to run; they are still
// run and checked. The median of 3 explores stays put when host
// contention slows one of them.
const metricJobs = 5

// runJob submits one job, follows its events to the terminal event and
// fetches its final status.
func runJob(ctx context.Context, c *http.Client, d *daemon, spec jobSpec) jobRun {
	r := jobRun{spec: spec}
	r.err = func() error {
		rctx, cancel := context.WithTimeout(ctx, 2*requestTimeout)
		defer cancel()
		start := time.Now()
		var sub struct {
			ID string `json:"id"`
		}
		cl, err := do(rctx, c, "POST", d.url+"/v1/"+spec.kind, "application/json", spec.body)
		if err != nil {
			return fmt.Errorf("submit %s: %w", spec.kind, err)
		}
		if err := json.Unmarshal(cl.body, &sub); err != nil {
			return err
		}
		r.id = sub.ID
		if err := r.follow(rctx, c, d); err != nil {
			return err
		}
		r.took = time.Since(start)
		if _, err := doJSON(rctx, c, "GET", d.url+"/v1/jobs/"+r.id, nil, &r.status); err != nil {
			return err
		}
		return nil
	}()
	return r
}

// follow reads the job's NDJSON event stream until its terminal event.
func (r *jobRun) follow(ctx context.Context, c *http.Client, d *daemon) error {
	req, err := http.NewRequestWithContext(ctx, "GET", d.url+"/v1/jobs/"+r.id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: HTTP %d", r.id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var planned time.Time
	for sc.Scan() {
		var ev struct {
			Kind string `json:"kind"`
			Data struct {
				Node *nodeJSON `json:"node"`
			} `json:"data"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("event of %s: %w", r.id, err)
		}
		switch ev.Kind {
		case "planned":
			planned = time.Now()
		case "cell":
			r.cellEvts++
			if !planned.IsZero() {
				r.evalTook = time.Since(planned)
			}
		case "node-evaluated":
			if ev.Data.Node != nil {
				r.nodes = append(r.nodes, *ev.Data.Node)
			}
		case "done", "failed", "cancelled":
			r.state = ev.Kind
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("events of %s ended without a terminal event", r.id)
}

// driveJobs runs the closed loop for dur; the job in flight at the
// deadline runs to its end. On a machine too slow to start the first
// metricJobs jobs within dur, the loop runs on until it has, so every
// run's metrics cover the same jobs.
func driveJobs(ctx context.Context, in *jobsInputs, c *http.Client, d *daemon, dur time.Duration) []jobRun {
	deadline := time.Now().Add(dur)
	var runs []jobRun
	for k := 0; (time.Now().Before(deadline) || k < metricJobs) && ctx.Err() == nil; k++ {
		runs = append(runs, runJob(ctx, c, d, in.job(k)))
	}
	return runs
}

func runJobs(ctx context.Context, env *runEnv, out *outcome) error {
	t0 := time.Now()
	in, err := newJobsInputs(env)
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
	var runs []jobRun
	if _, err := snapshotPhase(ctx, c, d, "jobs", out, func() error {
		runs = driveJobs(ctx, in, c, d, env.seconds)
		return nil
	}); err != nil {
		return err
	}
	// Determinism: the first sweep again, same seed, must commit the same
	// cells. (Every explore already resubmits the first one's corpus.)
	var again jobRun
	if _, err := snapshotPhase(ctx, c, d, "jobs-repeat", out, func() error {
		if len(runs) < 2 {
			return fmt.Errorf("the jobs loop ended after %d jobs: %w", len(runs), ctx.Err())
		}
		again = runJob(ctx, c, d, runs[1].spec)
		return nil
	}); err != nil {
		return err
	}
	// The live heap is read with the daemon and its caches still up.
	heap := liveHeapMB()
	if err := d.close(); err != nil {
		return fmt.Errorf("close daemon: %w", err)
	}
	reportJobs(runs, heap, out)
	t0 = time.Now()
	checkJobs(ctx, runs, again, out)
	out.note("outputs checked in %.2fs", time.Since(t0).Seconds())
	return ctx.Err()
}

func reportJobs(runs []jobRun, heap float64, out *outcome) {
	var sw, ex, all []float64
	var cells int
	var evalTook time.Duration
	for k, r := range runs {
		if r.err != nil {
			continue
		}
		all = append(all, r.took.Seconds())
		switch {
		case k >= metricJobs:
		case r.spec.kind == "sweep":
			sw = append(sw, r.took.Seconds())
			cells += r.cellEvts
			evalTook += r.evalTook
		default:
			ex = append(ex, r.took.Seconds())
		}
	}
	out.add("p50_ms", median(sw)*1000, "ms")
	out.add("throughput_per_s", float64(cells)/evalTook.Seconds(), "1/s")
	out.add("second_p50_ms", median(ex)*1000, "ms")
	out.figure("sweep_job_s", median(sw), "s")
	out.figure("explore_job_s", median(ex), "s")
	out.figure("sweep_cells_per_s", float64(cells)/evalTook.Seconds(), "1/s")
	out.figure("peak_rss_mb", peakRSSMB(), "MB")
	out.figure("live_heap_mb", heap, "MB")
	var nodes []int
	for _, r := range runs {
		if r.spec.kind == "explore" {
			nodes = append(nodes, len(r.nodes))
		}
	}
	out.note("jobs: %d jobs %v s (explore, sweep, ...), explores evaluated %v nodes; the metrics cover the first %d jobs: sweeps %v s and explores %v s",
		len(all), rounded(all), nodes, metricJobs, rounded(sw), rounded(ex))
	out.note("jobs: throughput_per_s is sweep cells committed per second of the sweeps' evaluation stage (%d cells in %.2f s, from each \"planned\" event to its last \"cell\" event); p50_ms also counts submission, the base corpus, planning and the terminal record",
		cells, evalTook.Seconds())
}

func rounded(xs []float64) []string {
	var s []string
	for _, x := range xs {
		s = append(s, fmt.Sprintf("%.2f", x))
	}
	return s
}

// checkJobs validates every job and the repeated sweep, and checks that
// each explore and the repeated sweep give byte-identical results to the
// first job of their kind.
func checkJobs(ctx context.Context, runs []jobRun, again jobRun, out *outcome) {
	all := append(append([]jobRun{}, runs...), again)
	errs := make([]error, len(all))
	arch := make([]*sweepCellJSON, len(all))
	parallel(len(all), func(i int) {
		arch[i], errs[i] = checkJob(ctx, all[i])
	})
	refuted, sweeps := 0, 0
	for i, r := range all {
		out.attempted++
		if errs[i] != nil {
			out.fail("%s job %s: %v", r.spec.kind, r.id, errs[i])
		}
		if arch[i] != nil {
			sweeps++
			if !arch[i].Consistent {
				refuted++
			}
		}
	}
	if sweeps > 0 {
		out.note("sweep finding: the architectural cell 0xBC/0x0F was refuted in %d of %d sweeps (each count equal to the exact per-call reference)", refuted, sweeps)
	}
	for _, r := range all[2:] {
		first := runs[0]
		if r.spec.kind == "sweep" {
			first = runs[1]
		}
		if r.err != nil || first.err != nil || (r.spec.kind == "sweep" && r.spec.seed != first.spec.seed) {
			continue
		}
		a, b := first.status.Result, r.status.Result
		if r.spec.kind == "sweep" {
			var ra, rb sweepResultJSON
			_ = json.Unmarshal(a, &ra) // both decoded fine in checkJob
			_ = json.Unmarshal(b, &rb)
			a, _ = json.Marshal(ra.Cells)
			b, _ = json.Marshal(rb.Cells)
		}
		if !bytes.Equal(a, b) {
			out.fail("%s job %s repeated as %s: results differ", r.spec.kind, first.id, r.id)
		}
	}
}

// checkJob validates one job's events and result. For a sweep it also
// recomputes the architectural cell (event 0xBC, umask 0x0F) from public
// functions — base corpus, decoder, walker-reference model — with a
// per-call core.Model.TestObservation, and returns the daemon's cell.
func checkJob(ctx context.Context, r jobRun) (*sweepCellJSON, error) {
	arch, err := checkJobShape(r)
	if err != nil || arch == nil {
		return arch, err
	}
	feasible, infeasible, err := archReference(ctx, r.spec.seed)
	if err != nil {
		return arch, err
	}
	if arch.Feasible != feasible || arch.Infeasible != infeasible || arch.Consistent != (infeasible == 0) {
		return arch, fmt.Errorf("architectural cell %d feasible/%d infeasible, reference %d/%d",
			arch.Feasible, arch.Infeasible, feasible, infeasible)
	}
	return arch, nil
}

// checkJobShape checks a job's terminal state, event counts and result
// shape, returning a sweep's architectural cell.
func checkJobShape(r jobRun) (*sweepCellJSON, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.state != "done" || r.status.State != "done" {
		return nil, fmt.Errorf("ended %s/%s: %s", r.state, r.status.State, r.status.Error)
	}
	if r.spec.kind != "sweep" {
		var res struct {
			NodesEvaluated int `json:"nodes_evaluated"`
		}
		if err := json.Unmarshal(r.status.Result, &res); err != nil {
			return nil, err
		}
		if res.NodesEvaluated == 0 || res.NodesEvaluated != len(r.nodes) {
			return nil, fmt.Errorf("%d nodes evaluated, %d node events", res.NodesEvaluated, len(r.nodes))
		}
		return nil, nil
	}
	var res sweepResultJSON
	if err := json.Unmarshal(r.status.Result, &res); err != nil {
		return nil, err
	}
	if res.GridSize != sweep.DefaultGrid().Size() || len(res.Cells) != res.GridSize || r.cellEvts != res.GridSize {
		return nil, fmt.Errorf("grid %d, %d cells, %d cell events", res.GridSize, len(res.Cells), r.cellEvts)
	}
	var arch *sweepCellJSON
	for _, raw := range res.Cells {
		var cell sweepCellJSON
		if err := json.Unmarshal(raw, &cell); err != nil {
			return nil, err
		}
		if cell.Event == sweep.EventPageWalkerLoads && cell.Umask == 0x0F && cell.Cmask == 0 {
			arch = &cell
		}
	}
	if arch == nil {
		return nil, fmt.Errorf("no architectural cell 0xBC/0x0F in the grid")
	}
	return arch, nil
}

// archReference tests the architectural cell's derived corpus against the
// sweep's walker-reference model, one exact verdict per observation.
func archReference(ctx context.Context, seed int64) (feasible, infeasible int, err error) {
	base, err := sweep.BuildBaseCorpus(ctx, sweep.BaseSpec{Seed: seed})
	if err != nil {
		return 0, 0, err
	}
	feats := haswell.DiscoveredModelFeatures()
	feats.WalkBypass = false
	model, err := haswell.BuildModel("sweep/walker-reference", feats, haswell.AnalysisSet())
	if err != nil {
		return 0, 0, err
	}
	dec, err := sweep.NewDecoder(seed, base, model.Set)
	if err != nil {
		return 0, 0, err
	}
	dv := dec.Decode(sweep.RawConfig{Event: sweep.EventPageWalkerLoads, Umask: 0x0F})
	for _, o := range dv.Corpus {
		v, err := model.TestObservation(o, core.DefaultConfidence, stats.Correlated, false)
		if err != nil {
			return 0, 0, err
		}
		if v.Feasible {
			feasible++
		} else {
			infeasible++
		}
	}
	return feasible, infeasible, nil
}
