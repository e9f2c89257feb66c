// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5): the NBA and CarDB case studies (Tables 3–4), the
// CP experiments (Figs. 6–10), the CR experiments (Figs. 11–13), plus two
// reproduction extras (lemma ablations and a pdf-model demonstration).
//
// Absolute numbers differ from the paper (different hardware, language and
// synthetic stand-ins for the real datasets); the shapes — who wins, what
// grows with what — are the reproduction target and are recorded in
// EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/rtree"
	"github.com/crsky/crsky/internal/skyline"
	"github.com/crsky/crsky/internal/stats"
	"github.com/crsky/crsky/internal/uncertain"
)

// Config controls an experiment run.
type Config struct {
	// Out receives the rendered tables.
	Out io.Writer
	// Seed drives dataset generation and non-answer selection.
	Seed int64
	// Runs is the number of random non-answers averaged per measurement
	// (the paper uses 50).
	Runs int
	// Scale multiplies every synthetic cardinality; 1.0 reproduces the
	// paper's sizes (100K default, 1M max), 0.1 keeps full sweeps under a
	// minute on a laptop.
	Scale float64
	// MaxPool caps the number of non-forced, non-counterfactual
	// candidates a selected non-answer may have. Refinement is
	// exponential in this pool (Theorem 1), so the harness only averages
	// over non-answers whose refinement terminates — the paper's averages
	// over random non-answers implicitly rely on the same property.
	MaxPool int
	// MaxCandidates caps |Cc| for selected non-answers.
	MaxCandidates int
	// NaiveMaxCandidates caps |Cc| for non-answers used in the
	// CP-vs-Naive-I and CR-vs-Naive-II comparisons (the baselines
	// enumerate 2^|Cc| subsets).
	NaiveMaxCandidates int
	// BenchFile, when non-empty, is where benchmark-style experiments
	// (prsq) write their machine-readable results; empty skips the file
	// and only renders the table.
	BenchFile string
}

func (c *Config) fillDefaults() {
	if c.Runs == 0 {
		c.Runs = 50
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.MaxPool == 0 {
		c.MaxPool = 18
	}
	if c.MaxCandidates == 0 {
		c.MaxCandidates = 400
	}
	if c.NaiveMaxCandidates == 0 {
		c.NaiveMaxCandidates = 14
	}
}

func (c Config) scaled(n int) int {
	s := int(float64(n) * c.Scale)
	if s < 100 {
		s = 100
	}
	return s
}

// Experiment is a named, runnable reproduction unit.
type Experiment struct {
	Name  string
	Title string
	Run   func(Config) error
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table3", "Table 3: causality & responsibility case study (NBA)", Table3},
		{"table4", "Table 4: causes for a non-reverse-skyline car (CarDB)", Table4},
		{"fig6", "Fig. 6: CP vs Naive-I (I/O and CPU)", Fig6},
		{"fig7", "Fig. 7: CP cost vs alpha", Fig7},
		{"fig8", "Fig. 8: CP cost vs radius range", Fig8},
		{"fig9", "Fig. 9: CP cost vs dimensionality", Fig9},
		{"fig10", "Fig. 10: CP cost vs cardinality", Fig10},
		{"fig11", "Fig. 11: CR vs Naive-II (I/O and CPU)", Fig11},
		{"fig12", "Fig. 12: CR cost vs dimensionality", Fig12},
		{"fig13", "Fig. 13: CR cost vs cardinality", Fig13},
		{"ablation", "Extra: lemma ablation study for CP", Ablation},
		{"pdf", "Extra: continuous pdf model demonstration", PDFDemo},
		{"prsq", "Extra: indexed vs naive probabilistic reverse skyline query (writes BENCH_prsq.json)", PRSQBench},
		{"prsqbatch", "Extra: v2 batch query vs independent queries (fails unless strictly fewer node accesses)", PRSQBatch},
		{"explain", "Extra: naive vs old refiner vs branch-and-bound FMCS (writes BENCH_explain.json)", ExplainBench},
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment.
func RunAll(cfg Config) error {
	for _, e := range All() {
		fmt.Fprintf(cfg.Out, "=== %s ===\n", e.Title)
		if err := e.Run(cfg); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
	}
	return nil
}

// uncertainFamily builds one of the four synthetic uncertain families.
func uncertainFamily(family string, n, dims int, rmin, rmax float64, seed int64) (*dataset.Uncertain, error) {
	var cfg dataset.UncertainConfig
	switch family {
	case "lUrU":
		cfg = dataset.LUrU(n, dims, rmin, rmax, seed)
	case "lUrG":
		cfg = dataset.LUrG(n, dims, rmin, rmax, seed)
	case "lSrU":
		cfg = dataset.LSrU(n, dims, rmin, rmax, seed)
	case "lSrG":
		cfg = dataset.LSrG(n, dims, rmin, rmax, seed)
	default:
		return nil, fmt.Errorf("experiments: unknown family %q", family)
	}
	return dataset.GenerateUncertain(cfg)
}

// domainQuery picks a query object away from the domain boundary so its
// dominance neighbourhood is well populated.
func domainQuery(rng *rand.Rand, dims int, domain float64) geom.Point {
	q := make(geom.Point, dims)
	for j := range q {
		q[j] = domain * (0.3 + 0.4*rng.Float64())
	}
	return q
}

// cpWorkload bundles a dataset, query and the selected non-answers.
type cpWorkload struct {
	ds         *dataset.Uncertain
	q          geom.Point
	nonAnswers []int
}

// selectCPNonAnswers picks up to want random non-answers whose candidate
// sets satisfy the tractability caps. selectAlpha is the threshold used for
// the non-answer test; per Fig. 7's protocol the same non-answers are then
// measured under every alpha >= selectAlpha.
func selectCPNonAnswers(ds *dataset.Uncertain, q geom.Point, selectAlpha float64,
	want, maxCand, maxPool int, rng *rand.Rand) []int {

	perm := rng.Perm(ds.Len())
	var picked []int
	for _, id := range perm {
		if len(picked) >= want {
			break
		}
		an := ds.Objects[id]
		candIDs := causality.FilterCandidates(ds, q, an)
		if len(candIDs) == 0 || len(candIDs) > maxCand {
			continue
		}
		e := prob.NewEvaluator(an, q, objectsByID(ds, candIDs))
		if prob.GEq(e.Pr(), selectAlpha) {
			continue // an answer at the selection threshold
		}
		pool := 0
		for j := 0; j < e.N(); j++ {
			if !e.AlwaysDominates(j) {
				pool++
			}
		}
		if pool > maxPool {
			continue
		}
		picked = append(picked, id)
	}
	sort.Ints(picked)
	return picked
}

func objectsByID(ds *dataset.Uncertain, ids []int) []*uncertain.Object {
	out := make([]*uncertain.Object, len(ids))
	for i, id := range ids {
		out[i] = ds.Objects[id]
	}
	return out
}

// measure times one explanation and takes its I/O from the result: the
// node accesses of its candidate filter, the only R-tree traversal an
// explanation makes.
func measure(fn func() (*causality.Result, error)) (stats.Measurement, *causality.Result, error) {
	start := time.Now()
	res, err := fn()
	m := stats.Measurement{CPU: time.Since(start)}
	if res != nil {
		m.NodeAccesses = res.FilterNodeAccesses
	}
	return m, res, err
}

// buildCPWorkload generates a family dataset and selects non-answers.
func buildCPWorkload(cfg Config, family string, n, dims int, rmin, rmax float64,
	selectAlpha float64, maxCand int) (*cpWorkload, error) {

	cfg.fillDefaults()
	ds, err := uncertainFamily(family, n, dims, rmin, rmax, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1000))
	q := domainQuery(rng, dims, 10000)
	nonAnswers := selectCPNonAnswers(ds, q, selectAlpha, cfg.Runs, maxCand, cfg.MaxPool, rng)
	if len(nonAnswers) == 0 {
		return nil, fmt.Errorf("experiments: no tractable non-answers found (family %s)", family)
	}
	return &cpWorkload{ds: ds, q: q, nonAnswers: nonAnswers}, nil
}

// runCP measures CP over the workload's non-answers at the given alpha.
func (w *cpWorkload) runCP(alpha float64, opts causality.Options) (stats.Batch, error) {
	var batch stats.Batch
	for _, id := range w.nonAnswers {
		m, _, err := measure(func() (*causality.Result, error) {
			return causality.CP(w.ds, w.q, id, alpha, opts)
		})
		if err != nil {
			return batch, err
		}
		batch.Record(m)
	}
	return batch, nil
}

// runNaiveI measures Naive-I over the workload's non-answers.
func (w *cpWorkload) runNaiveI(alpha float64, opts causality.Options) (stats.Batch, error) {
	var batch stats.Batch
	for _, id := range w.nonAnswers {
		m, _, err := measure(func() (*causality.Result, error) {
			return causality.NaiveI(w.ds, w.q, id, alpha, opts)
		})
		if err != nil {
			return batch, err
		}
		batch.Record(m)
	}
	return batch, nil
}

// crWorkload bundles a certain dataset, query and selected non-answers.
type crWorkload struct {
	ix         *skyline.Index
	q          geom.Point
	nonAnswers []int
}

// buildCRWorkload generates a certain dataset and selects non-answers whose
// candidate (dominator) sets satisfy the cap.
func buildCRWorkload(cfg Config, kind dataset.CertainKind, n, dims, maxCand int) (*crWorkload, error) {
	cfg.fillDefaults()
	ds, err := dataset.GenerateCertain(dataset.CertainConfig{
		N: n, Dims: dims, Kind: kind, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	return buildCRWorkloadFromPoints(cfg, ds.Points, maxCand)
}

func buildCRWorkloadFromPoints(cfg Config, pts []geom.Point, maxCand int) (*crWorkload, error) {
	cfg.fillDefaults()
	ix := skyline.NewIndex(pts, rtree.WithPageSize(rtree.DefaultPageSize))
	rng := rand.New(rand.NewSource(cfg.Seed + 2000))
	q := queryNearData(rng, pts)
	perm := rng.Perm(len(pts))
	var nonAnswers []int
	for _, i := range perm {
		if len(nonAnswers) >= cfg.Runs {
			break
		}
		doms, _ := ix.Dominators(i, q)
		if len(doms) == 0 || len(doms) > maxCand {
			continue
		}
		nonAnswers = append(nonAnswers, i)
	}
	if len(nonAnswers) == 0 {
		return nil, fmt.Errorf("experiments: no suitable certain non-answers found")
	}
	sort.Ints(nonAnswers)
	return &crWorkload{ix: ix, q: q, nonAnswers: nonAnswers}, nil
}

// queryNearData picks a query point inside the data's bounding region so
// reverse skyline structure is non-trivial for any distribution.
func queryNearData(rng *rand.Rand, pts []geom.Point) geom.Point {
	base := pts[rng.Intn(len(pts))]
	q := base.Clone()
	for j := range q {
		q[j] *= 0.9 + 0.2*rng.Float64()
	}
	return q
}

// runCR measures CR over the workload's non-answers.
func (w *crWorkload) runCR() (stats.Batch, error) {
	var batch stats.Batch
	for _, id := range w.nonAnswers {
		m, _, err := measure(func() (*causality.Result, error) {
			return causality.CR(w.ix, w.q, id)
		})
		if err != nil {
			return batch, err
		}
		batch.Record(m)
	}
	return batch, nil
}

// runNaiveII measures Naive-II over the workload's non-answers.
func (w *crWorkload) runNaiveII(opts causality.Options) (stats.Batch, error) {
	var batch stats.Batch
	for _, id := range w.nonAnswers {
		m, _, err := measure(func() (*causality.Result, error) {
			return causality.NaiveII(w.ix, w.q, id, opts)
		})
		if err != nil {
			return batch, err
		}
		batch.Record(m)
	}
	return batch, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
