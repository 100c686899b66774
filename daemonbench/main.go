// Command daemonbench is the repository's end-to-end benchmark. It boots
// counterpointd's stack inside its own process, drives one seeded
// workload over loopback HTTP, checks every answer, and prints each
// metric by name with its unit; the last line of standard output is a
// JSON summary.
//
// Usage (from the repository root; daemonbench/run.py builds and runs it):
//
//	daemonbench --workload verdicts|jobs|stream --seed n --seconds s --trace 0|1
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1 a
// separate traced run replays the same inputs through each layer's
// public functions and reports per-layer spans, counters, span coverage
// and the tracing overhead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runLimit bounds a whole run, set-up and checks included; the watchdog
// cancels everything when it expires and exits the process if the
// cancelled run does not wind down within exitGrace.
const (
	runLimit  = 165 * time.Second
	exitGrace = 10 * time.Second
)

// setupRepeats is how many times a run boots and warms a daemon; setup_s
// is the median, and the last daemon serves the workload.
const setupRepeats = 5

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// outcome is what a workload reports: the metrics of the JSON summary,
// and the workload's own named figures, printed but not summarised.
type outcome struct {
	attempted int
	failed    int
	metrics   []metric
	figures   []metric
	notes     []string
}

func (o *outcome) add(name string, value float64, unit string) {
	o.metrics = append(o.metrics, metric{name, value, unit})
}

func (o *outcome) figure(name string, value float64, unit string) {
	o.figures = append(o.figures, metric{name, value, unit})
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail counts a failed operation and records why (the first few only).
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 5 {
		o.note("FAILED: "+format, args...)
	}
}

// runEnv is shared by the workloads of one run.
type runEnv struct {
	seed    int64
	seconds time.Duration
	trace   bool
	tmpRoot string
	catalog map[string]restrictedModel
}

// rng returns a generator for one named input stream of the run.
func (e *runEnv) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1_000_003 + stream))
}

type workload struct {
	run   func(ctx context.Context, env *runEnv, out *outcome) error
	trace func(ctx context.Context, env *runEnv, out *outcome) error
}

var workloads = map[string]workload{
	"verdicts": {run: runVerdicts, trace: traceVerdicts},
	"jobs":     {run: runJobs, trace: traceJobs},
	"stream":   {run: runStream, trace: traceStream},
}

func main() {
	os.Exit(mainExit())
}

func mainExit() (code int) {
	var (
		name    = flag.String("workload", "", "workload to run: verdicts, jobs or stream")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the measured run")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "daemonbench: usage: --workload verdicts|jobs|stream --seed n --seconds s --trace 0|1")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeoutCause(ctx, runLimit, errors.New("run time limit"))
	defer cancel()

	if err := os.MkdirAll(filepath.Join(".bench_build", "run"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "daemonbench:", err)
		return 1
	}
	tmpRoot, err := os.MkdirTemp(filepath.Join(".bench_build", "run"), fmt.Sprintf("%d-", os.Getpid()))
	if err != nil {
		fmt.Fprintln(os.Stderr, "daemonbench:", err)
		return 1
	}
	base := takeBaseline(tmpRoot)
	// The watchdog is the last resort for a run that ignores cancellation:
	// close what can be closed, remove the stores and leave.
	watchdog := time.AfterFunc(runLimit+exitGrace, func() {
		fmt.Fprintln(os.Stderr, "daemonbench: run did not stop after cancellation; exiting")
		liveDaemons.closeAll()
		os.RemoveAll(tmpRoot)
		os.Exit(3)
	})
	defer watchdog.Stop()

	out := &outcome{}
	var runErr error
	func() {
		defer func() {
			if p := recover(); p != nil {
				runErr = fmt.Errorf("panic: %v", p)
			}
		}()
		env := &runEnv{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, tmpRoot: tmpRoot}
		t0 := time.Now()
		if env.catalog, runErr = restrictedCatalog(); runErr != nil {
			return
		}
		out.note("restricted catalogue built and verified in %.2fs", time.Since(t0).Seconds())
		if env.trace {
			runErr = wl.trace(ctx, env, out)
		} else {
			runErr = wl.run(ctx, env, out)
		}
	}()
	hygieneErr := base.verify()
	for _, n := range out.notes {
		fmt.Fprintln(os.Stderr, "daemonbench:", n)
	}
	if hygieneErr != nil {
		fmt.Fprintln(os.Stderr, "daemonbench: hygiene check FAILED:", hygieneErr)
	} else {
		fmt.Fprintln(os.Stderr, "daemonbench: hygiene check ok: no daemon, listener, temp store, child process, goroutine or descriptor survives")
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "daemonbench: interrupted:", context.Cause(ctx))
		return 1
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "daemonbench:", runErr)
		return 1
	}
	if hygieneErr != nil {
		out.fail("hygiene: %v", hygieneErr)
	}
	section := "end_to_end"
	if *trace == 1 {
		section = "per_layer"
	}
	if err := checkMetricNames(out, section); err != nil {
		fmt.Fprintln(os.Stderr, "daemonbench:", err)
		return 1
	}
	if err := printResult(*name, out); err != nil {
		fmt.Fprintln(os.Stderr, "daemonbench:", err)
		return 1
	}
	return 0
}

// printResult prints every metric by name and unit, then the JSON summary
// line. A metric that is not a finite number (a workload that completed
// none of the operations it summarises) reads 0 and fails the run.
func printResult(name string, out *outcome) error {
	for i, m := range out.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			out.fail("metric %s is %v", m.Name, m.Value)
			out.metrics[i].Value = 0
		}
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]jsonMetric{}
	for _, m := range out.metrics {
		ms[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s: attempted %d, failed %d (failed_frac %.6f)\n",
		name, out.attempted, out.failed, float64(out.failed)/float64(max(out.attempted, 1)))
	for _, n := range names {
		fmt.Printf("  %-34s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
	for _, f := range out.figures {
		fmt.Printf("  %s.%-*s %14.4f %s\n", name, 33-len(name), f.Name, f.Value, f.Unit)
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, max(out.attempted, 1), out.failed, ms})
	if err != nil {
		return err
	}
	fmt.Println(strings.TrimSpace(string(b)))
	return nil
}

// checkMetricNames verifies the run reports exactly the metrics that
// BENCHMARK.json declares in section.
func checkMetricNames(out *outcome, section string) error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bj map[string]json.RawMessage
	if err := json.Unmarshal(b, &bj); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var declared []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(bj[section], &declared); err != nil {
		return fmt.Errorf("BENCHMARK.json %s: %w", section, err)
	}
	want := map[string]bool{}
	for _, m := range declared {
		want[m.Name] = true
	}
	for _, m := range out.metrics {
		if !want[m.Name] {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json %s", m.Name, section)
		}
		delete(want, m.Name)
	}
	for name := range want {
		return fmt.Errorf("BENCHMARK.json %s declares %s, which this run does not report", section, name)
	}
	return nil
}
