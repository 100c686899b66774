package main

// Seeded inputs. Everything here runs before any timing starts.
//
// Served catalogue models cannot be tested on simulator data: every
// catalogue source increments MMU-cache counters (pdpte$_*, pml4e$_*) that
// haswell.BuildCorpus never records, so POST /v1/models/{m}/test answers
// 400 for all 35 of them. The benchmark therefore serves restricted
// copies: each source with the increments outside haswell.AnalysisSet()
// replaced by `pass;`, checked cone-for-cone against
// haswell.BuildModel(…, AnalysisSet()).

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/haswell"
)

// readerModels is the fixed subset of restricted catalogue models the
// verdicts reader tests; setup registers and describes exactly these. On
// simulator data m0 is refuted by most observations (violations are
// identified), m5 and m9 are mostly consistent, and t12 (a Table 5
// trigger variant) is consistent; all four have exact solves cheap
// enough for the per-call reference check.
var readerModels = []string{"m0", "m5", "m9", "t12"}

// streamModel is the reader model the stream workload binds to.
const streamModel = "m9"

// restrictedName is the served name of a restricted catalogue model.
func restrictedName(catalogName string) string { return "r-" + catalogName }

// incrStmt matches one DSL increment statement.
var incrStmt = regexp.MustCompile(`incr\s+([^\s;]+)\s*;`)

// stripSource replaces every increment of a counter outside keep with a
// no-op. Counter nodes have a single successor, so μpaths are unchanged;
// only the unrecorded coordinates disappear from the signatures.
func stripSource(src string, keep *counters.Set) string {
	return incrStmt.ReplaceAllStringFunc(src, func(stmt string) string {
		if keep.Contains(counters.Event(incrStmt.FindStringSubmatch(stmt)[1])) {
			return stmt
		}
		return "pass;"
	})
}

// coneKey renders a model's cone independently of counter order: each
// generator as its sorted non-zero event=value terms, generators sorted.
// Model.ContentKey cannot be compared directly because the stripped
// source's own counter order differs from AnalysisSet's.
func coneKey(m *core.Model) string {
	evs := m.Set.Events()
	gens := make([]string, 0, len(m.Cone().Generators))
	for _, g := range m.Cone().Generators {
		var terms []string
		for i, c := range g {
			if c.Sign() != 0 {
				terms = append(terms, string(evs[i])+"="+c.RatString())
			}
		}
		sort.Strings(terms)
		gens = append(gens, strings.Join(terms, ","))
	}
	sort.Strings(gens)
	return strings.Join(gens, "|")
}

// restrictedModel is one served model: a restricted catalogue entry or a
// writer's feature combination.
type restrictedModel struct {
	Name   string // served name
	Source string // stripped DSL
}

// restrictedCatalog strips every catalogue model and verifies each
// against the analysis-set model it must equal.
func restrictedCatalog() (map[string]restrictedModel, error) {
	set := haswell.AnalysisSet()
	out := map[string]restrictedModel{}
	for _, cm := range haswell.Catalog() {
		src := stripSource(cm.Source, set)
		got, err := core.ModelFromDSL(cm.Name, src, nil)
		if err != nil {
			return nil, fmt.Errorf("restricted %s: %w", cm.Name, err)
		}
		want, err := haswell.BuildModel(cm.Name, cm.Features, set)
		if err != nil {
			return nil, fmt.Errorf("catalogue %s: %w", cm.Name, err)
		}
		if !got.Set.Subset(set) {
			return nil, fmt.Errorf("restricted %s still increments counters outside the analysis set: %v", cm.Name, got.Set)
		}
		if got.NumPaths() != want.NumPaths() || coneKey(got) != coneKey(want) {
			return nil, fmt.Errorf("restricted %s: cone differs from BuildModel over AnalysisSet", cm.Name)
		}
		out[cm.Name] = restrictedModel{Name: restrictedName(cm.Name), Source: src}
	}
	for _, n := range append(append([]string{}, readerModels...), streamModel) {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("catalogue has no model %q", n)
		}
	}
	return out, nil
}

// obsPool holds the simulator corpora from which streams of fresh
// observations are derived: each one a random subset of a base
// observation's sample rows (drawn without replacement, kept in time
// order), so every derived observation has its own confidence region
// and feasibility LP.
type obsPool struct {
	base []*counters.Observation
}

// obsRows is the number of sample rows per derived observation.
const obsRows = 24

// poolCorpora is how many simulator corpora (seeds 1..poolCorpora) a
// pool draws from. The corpora are fixed; the run's seed picks the row
// subsets. A derived observation inherits its base observation's
// difficulty (how close its region sits to the cone boundary, and so
// how often the exact solver must decide), so seeding the simulation
// itself would move a run's verdict costs by ±25% from seed to seed.
const poolCorpora = 3

// corpusSpec sizes one simulated base corpus: twice as many intervals as
// a derived observation keeps, at a moderate micro-op count per interval.
func corpusSpec(seed int64) haswell.CorpusSpec {
	return haswell.CorpusSpec{Samples: 2 * obsRows, UopsPerSample: 3000, Seed: seed}
}

// newObsPool returns the pool's base corpora, projected onto the
// analysis set (the counters every restricted model is analysed over).
// The corpora do not depend on the run's seed, so the first run in a
// checkout simulates them and saves them under .bench_build/cache; later
// runs load that file instead of simulating again.
func newObsPool() (*obsPool, error) {
	path := filepath.Join(".bench_build", "cache", fmt.Sprintf("obspool-%d-%d.json", poolCorpora, obsRows))
	p := &obsPool{}
	if b, err := os.ReadFile(path); err == nil && json.Unmarshal(b, &p.base) == nil && len(p.base) > 0 {
		return p, nil
	}
	p.base = nil
	set := haswell.AnalysisSet()
	for k := int64(1); k <= poolCorpora; k++ {
		base, err := haswell.BuildCorpus(corpusSpec(k))
		if err != nil {
			return nil, fmt.Errorf("simulate corpus: %w", err)
		}
		for _, o := range base {
			o = o.Project(set)
			o.Label = fmt.Sprintf("c%d/%s", k, o.Label)
			p.base = append(p.base, o)
		}
	}
	return p, saveFile(path, p.base)
}

// saveFile writes v as JSON to path through a temporary file and a
// rename, so a concurrent or interrupted run never reads half a file.
func saveFile(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(b)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// obsStream is one deterministic sequence of derived observations;
// pool.stream(seed) always yields the same sequence, so a checker can
// regenerate what a client sent instead of keeping it.
type obsStream struct {
	pool *obsPool
	rng  *rand.Rand
	n    int
}

func (p *obsPool) stream(seed int64) *obsStream {
	return &obsStream{pool: p, rng: rand.New(rand.NewSource(seed))}
}

// next returns the stream's next observation.
func (s *obsStream) next() *counters.Observation {
	b := s.pool.base[s.rng.Intn(len(s.pool.base))]
	idx := s.rng.Perm(b.Len())[:obsRows]
	sort.Ints(idx)
	o := counters.NewObservation(fmt.Sprintf("%s#%d", b.Label, s.n), b.Set)
	for _, i := range idx {
		o.Append(append([]float64(nil), b.Samples[i]...))
	}
	s.n++
	return o
}

// featureCombos draws the writer's never-seen Haswell feature
// combinations: every aggregate-reference combination in one fixed
// shuffled order, skipping any whose restricted source equals a catalogue
// model's or an earlier draw's. The order does not depend on the run's
// seed: deduction cost grows with the cone's size, so a seeded draw would
// make register_* follow the seed; with one order every run registers the
// same models in the same sequence.
func featureCombos(catalog map[string]restrictedModel, limit int) []restrictedModel {
	var all []haswell.ModelFeatures
	for mask := 0; mask < 1<<9; mask++ {
		on := func(bit int) bool { return mask&(1<<bit) != 0 }
		f := haswell.ModelFeatures{
			TLBPrefetch: on(0), EarlyPSC: on(1), Merging: on(2), PML4ECache: on(3), WalkBypass: on(4),
			AbortAfterPSC: on(5), AbortAfterL2TLB: on(6), AbortAfterL1TLB: on(7), ConservativeAborts: on(8),
		}
		if !f.TLBPrefetch {
			all = append(all, f)
			continue
		}
		for trig := haswell.TriggerLSQ; trig <= haswell.TriggerSTLBMiss; trig++ {
			for bits := 0; bits < 8; bits++ {
				g := f
				g.PfTrigger = trig
				g.PfSpec, g.PfLoads, g.PfStores = bits&1 != 0, bits&2 != 0, bits&4 != 0
				all = append(all, g)
			}
		}
	}
	rng := rand.New(rand.NewSource(0xfea7))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	seen := map[string]bool{}
	for _, m := range catalog {
		seen[bodyKey(m.Source)] = true
	}
	set := haswell.AnalysisSet()
	var out []restrictedModel
	for _, f := range all {
		if len(out) == limit {
			break
		}
		src := stripSource(haswell.GenerateDSL(f), set)
		if seen[bodyKey(src)] {
			continue
		}
		seen[bodyKey(src)] = true
		out = append(out, restrictedModel{Name: fmt.Sprintf("w%04d", len(out)), Source: src})
	}
	return out
}

// bodyKey is a DSL source without its comment lines, so two combinations
// that generate the same model under different feature labels compare
// equal.
func bodyKey(src string) string {
	var b strings.Builder
	for _, line := range strings.Split(src, "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "//") {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
