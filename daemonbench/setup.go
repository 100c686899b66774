package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// describeJSON is the part of GET /v1/models/{m} the benchmark checks.
type describeJSON struct {
	Name        string   `json:"name"`
	Counters    []string `json:"counters"`
	NumPaths    int      `json:"num_paths"`
	NumCone     int      `json:"num_generators"`
	Constraints []string `json:"constraints"`
}

// setupOnce boots a daemon and brings it to healthy and warmed: /healthz
// answers, the restricted reader models are registered, and each is
// described (which deduces its constraints). It returns the time from
// daemon construction to warmed.
func setupOnce(ctx context.Context, env *runEnv, c *http.Client, sm seams) (*daemon, time.Duration, error) {
	start := time.Now()
	d, err := bootDaemon(env.tmpRoot, sm)
	if err != nil {
		return nil, 0, err
	}
	if err := warm(ctx, env, c, d); err != nil {
		d.close()
		return nil, 0, err
	}
	return d, time.Since(start), nil
}

func warm(ctx context.Context, env *runEnv, c *http.Client, d *daemon) error {
	var health struct {
		Status string `json:"status"`
	}
	if _, err := doJSON(ctx, c, "GET", d.url+"/healthz", nil, &health); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if health.Status != "ok" {
		return fmt.Errorf("healthz: status %q", health.Status)
	}
	for _, name := range readerModels {
		m := env.catalog[name]
		if _, err := doJSON(ctx, c, "POST", d.url+"/v1/models", map[string]string{"name": m.Name, "source": m.Source}, nil); err != nil {
			return fmt.Errorf("register %s: %w", m.Name, err)
		}
		var desc describeJSON
		if _, err := doJSON(ctx, c, "GET", d.url+"/v1/models/"+m.Name, nil, &desc); err != nil {
			return fmt.Errorf("describe %s: %w", m.Name, err)
		}
		if len(desc.Constraints) == 0 {
			return fmt.Errorf("describe %s: no constraints", m.Name)
		}
	}
	return nil
}

// setup boots setupRepeats daemons, keeps the last and reports the
// median set-up time.
func setup(ctx context.Context, env *runEnv, c *http.Client, sm seams, out *outcome) (*daemon, error) {
	resetPeakRSS()
	var times []float64
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, fmt.Errorf("close set-up daemon: %w", err)
			}
			closeClients()
		}
		var took time.Duration
		var err error
		if d, took, err = setupOnce(ctx, env, c, sm); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, took.Seconds())
	}
	out.add("setup_s", median(times), "s")
	return d, nil
}

// resetPeakRSS returns freed memory to the OS and restarts the peak
// resident set count, so peak_rss_mb covers the daemons and their load,
// not input generation.
func resetPeakRSS() {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux); elsewhere the peak
	// simply includes input generation.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB. The
// daemon and the load generator share the process, so this is their sum.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.Sys) / (1 << 20)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// liveHeapMB forces a collection and returns the live heap in MiB: what
// the daemon (its caches above all) and the load generator keep, free of
// the garbage-collection timing that moves the peak resident set.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// subWindows is how many equal parts of a measured phase a windowed
// metric is computed over. The metric reports the median of the parts, so
// a burst of host contention that covers one or two of them moves it
// little; on a shared 2-core machine such bursts stretch whole seconds.
const subWindows = 5

// windowMedian splits [0, span) into subWindows equal parts, applies f to
// the values whose offsets fall in each non-empty part (offsets past span
// count in the last part) and returns the median of the results.
func windowMedian(span time.Duration, at []time.Duration, vals []float64, f func([]float64) float64) float64 {
	parts := make([][]float64, subWindows)
	for i, a := range at {
		k := min(max(int(int64(a)*subWindows/int64(span)), 0), subWindows-1)
		parts[k] = append(parts[k], vals[i])
	}
	var per []float64
	for _, p := range parts {
		if len(p) > 0 {
			per = append(per, f(p))
		}
	}
	return median(per)
}

// rateOver returns a windowMedian function that turns one part's counts
// into a rate per second.
func rateOver(span time.Duration) func([]float64) float64 {
	return func(counts []float64) float64 {
		sum := 0.0
		for _, c := range counts {
			sum += c
		}
		return sum / (span / subWindows).Seconds()
	}
}

// p50 is the median, as a windowMedian function.
func p50(xs []float64) float64 { return quantile(xs, 0.5) }

// median of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tail reports the highest of the standard percentiles that still has at
// least 10 samples above it: the value, the percentile and that count.
// With too few samples for any of them it reports the maximum.
func tail(xs []float64) (value, pct float64, beyond int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		v := quantile(s, p/100)
		n := 0
		for _, x := range s {
			if x > v {
				n++
			}
		}
		if n >= 10 {
			return v, p, n
		}
	}
	return quantile(s, 1), 100, 0
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
