package main

// Counts read from outside: GET /stats snapshots taken around each phase,
// reported as deltas, every ratio with its base.

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
)

// statsSnap is the part of GET /stats the benchmark reads.
type statsSnap struct {
	Evaluations      uint64 `json:"evaluations"`
	FilterHits       uint64 `json:"filter_hits"`
	CertFailures     uint64 `json:"certification_failures"`
	ExactFallbacks   uint64 `json:"exact_fallbacks"`
	KernelPromotions uint64 `json:"kernel_promotions"`
	WarmSolves       uint64 `json:"warm_solves"`
	ColdSolves       uint64 `json:"cold_solves"`
	Caches           struct {
		LPHits           uint64 `json:"lp_hits"`
		LPMisses         uint64 `json:"lp_misses"`
		LPEvictions      uint64 `json:"lp_evictions"`
		VerdictHits      uint64 `json:"verdict_hits"`
		VerdictMisses    uint64 `json:"verdict_misses"`
		VerdictEvictions uint64 `json:"verdict_evictions"`
		StoreHits        uint64 `json:"store_hits"`
		ModelEvictions   uint64 `json:"model_evictions"`
		SessionEvictions uint64 `json:"session_evictions"`
	} `json:"caches"`
	Sweep struct {
		CellsPlanned     uint64 `json:"cells_planned"`
		ClassesEvaluated uint64 `json:"classes_evaluated"`
		CellsCommitted   uint64 `json:"cells_committed"`
	} `json:"sweep"`
	Streams struct {
		Ingested       uint64 `json:"ingested"`
		Verdicts       uint64 `json:"verdicts"`
		Dropped        uint64 `json:"dropped"`
		Rejected       uint64 `json:"rejected"`
		QueueHighWater int    `json:"queue_high_water"`
		Latency        struct {
			Count    uint64  `json:"count"`
			P99Micro float64 `json:"p99_us"`
		} `json:"latency"`
	} `json:"streams"`
	Jobstore *struct {
		SizeBytes int64  `json:"size_bytes"`
		Appends   uint64 `json:"appends"`
		Fsyncs    uint64 `json:"fsyncs"`
	} `json:"jobstore"`
}

func getStats(ctx context.Context, c *http.Client, d *daemon) (statsSnap, error) {
	var s statsSnap
	_, err := doJSON(ctx, c, "GET", d.url+"/stats", nil, &s)
	return s, err
}

// statsDelta is the counter movement across one phase.
type statsDelta struct {
	evaluations, filterHits, certFailures, exactFallbacks, kernelPromotions uint64
	warmSolves, coldSolves                                                  uint64
	verdictHits, verdictLookups, evictions                                  uint64
	cellsPlanned, classesEvaluated, cellsCommitted                          uint64
	ingested, dropped, rejected                                             uint64
	journalBytes, journalAppends                                            int64
	queueHighWater                                                          int
	streamP99us                                                             float64
}

func delta(a, b statsSnap) statsDelta {
	d := statsDelta{
		evaluations:      b.Evaluations - a.Evaluations,
		filterHits:       b.FilterHits - a.FilterHits,
		certFailures:     b.CertFailures - a.CertFailures,
		exactFallbacks:   b.ExactFallbacks - a.ExactFallbacks,
		kernelPromotions: b.KernelPromotions - a.KernelPromotions,
		warmSolves:       b.WarmSolves - a.WarmSolves,
		coldSolves:       b.ColdSolves - a.ColdSolves,
		verdictHits:      b.Caches.VerdictHits - a.Caches.VerdictHits,
		verdictLookups: (b.Caches.VerdictHits + b.Caches.VerdictMisses) -
			(a.Caches.VerdictHits + a.Caches.VerdictMisses),
		evictions: (b.Caches.LPEvictions + b.Caches.VerdictEvictions + b.Caches.ModelEvictions + b.Caches.SessionEvictions) -
			(a.Caches.LPEvictions + a.Caches.VerdictEvictions + a.Caches.ModelEvictions + a.Caches.SessionEvictions),
		cellsPlanned:     b.Sweep.CellsPlanned - a.Sweep.CellsPlanned,
		classesEvaluated: b.Sweep.ClassesEvaluated - a.Sweep.ClassesEvaluated,
		cellsCommitted:   b.Sweep.CellsCommitted - a.Sweep.CellsCommitted,
		ingested:         b.Streams.Ingested - a.Streams.Ingested,
		dropped:          b.Streams.Dropped - a.Streams.Dropped,
		rejected:         b.Streams.Rejected - a.Streams.Rejected,
		queueHighWater:   b.Streams.QueueHighWater,
		streamP99us:      b.Streams.Latency.P99Micro,
	}
	if a.Jobstore != nil && b.Jobstore != nil {
		d.journalBytes = b.Jobstore.SizeBytes - a.Jobstore.SizeBytes
		d.journalAppends = int64(b.Jobstore.Appends - a.Jobstore.Appends)
	}
	return d
}

// ratio is num/den, or 0 for an empty base.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// describe renders the delta for the run's notes, each ratio with its
// base.
func (d statsDelta) describe(phase string) string {
	return fmt.Sprintf("%s /stats delta: solver evaluations %d, filter hits %d/%d (%.3f), "+
		"cert failures %d, exact fallbacks %d, kernel promotions %d, warm %d, cold %d; "+
		"verdict cache hits %d/%d lookups (%.3f), evictions %d; sweep classes evaluated %d/%d cells committed "+
		"(evaluations avoided %.3f of %d planned); streams ingested %d dropped %d rejected %d high-water %d; "+
		"journal +%d bytes in %d appends",
		phase, d.evaluations, d.filterHits, d.evaluations, ratio(d.filterHits, d.evaluations),
		d.certFailures, d.exactFallbacks, d.kernelPromotions, d.warmSolves, d.coldSolves,
		d.verdictHits, d.verdictLookups, ratio(d.verdictHits, d.verdictLookups), d.evictions,
		d.classesEvaluated, d.cellsCommitted, d.avoided(), d.cellsPlanned,
		d.ingested, d.dropped, d.rejected, d.queueHighWater, d.journalBytes, d.journalAppends)
}

// avoided is the sweep's evaluations-avoided ratio over the phase.
func (d statsDelta) avoided() float64 {
	if d.cellsCommitted == 0 {
		return 0
	}
	return 1 - ratio(d.classesEvaluated, d.cellsCommitted)
}

// snapshotPhase wraps f with /stats snapshots and notes the delta.
func snapshotPhase(ctx context.Context, c *http.Client, d *daemon, phase string, out *outcome, f func() error) (statsDelta, error) {
	before, err := getStats(ctx, c, d)
	if err != nil {
		return statsDelta{}, fmt.Errorf("stats before %s: %w", phase, err)
	}
	steal0, total0 := hostCPUTicks()
	if err := f(); err != nil {
		return statsDelta{}, err
	}
	steal1, total1 := hostCPUTicks()
	after, err := getStats(ctx, c, d)
	if err != nil {
		return statsDelta{}, fmt.Errorf("stats after %s: %w", phase, err)
	}
	dl := delta(before, after)
	out.note("%s", dl.describe(phase))
	if total1 > total0 {
		out.note("%s: host steal %.1f%% of CPU time (%d of %d ticks)", phase,
			100*float64(steal1-steal0)/float64(total1-total0), steal1-steal0, total1-total0)
	}
	return dl, nil
}

// hostCPUTicks reads the machine-wide steal and total CPU ticks from
// /proc/stat (zeros where it is unavailable). Steal is time the
// hypervisor ran something else while this machine's CPUs wanted to run.
func hostCPUTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, s := range f[1:9] {
		v, _ := strconv.ParseUint(s, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
