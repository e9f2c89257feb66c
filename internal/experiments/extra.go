package experiments

import (
	"fmt"
	"math/rand"

	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/stats"
	"github.com/crsky/crsky/internal/uncertain"
)

// Ablation quantifies each refinement ingredient DESIGN.md calls out by
// disabling it: Lemma 4 (Γ1 forcing), Lemma 5 (counterfactual exclusion),
// Lemma 6 (bound propagation), and the monotonicity prune. The subset-
// verification count is the work metric (CPU follows it).
func Ablation(cfg Config) error {
	cfg.fillDefaults()
	// Ablations explode combinatorially, so run them on a reduced pool.
	if cfg.MaxPool > 12 {
		cfg.MaxPool = 12
	}
	w, err := buildCPWorkload(cfg, "lUrU", cfg.scaled(defaultN), defaultDims,
		defaultRMin, defaultRMax, defaultAlpha, cfg.NaiveMaxCandidates)
	if err != nil {
		return err
	}
	variants := []struct {
		name string
		opts causality.Options
	}{
		{"full CP", causality.Options{}},
		{"no Lemma 4 (Γ1)", causality.Options{NoLemma4: true}},
		{"no Lemma 5 (counterfactuals)", causality.Options{NoLemma5: true}},
		{"no Lemma 6 (propagation)", causality.Options{NoLemma6: true}},
		{"no monotone prune", causality.Options{NoPrune: true}},
	}
	tab := stats.Table{
		Title:   "Ablation: CP refinement ingredients (lUrU, defaults)",
		Header:  []string{"variant", "cpu(ms)", "subsets examined"},
		Caption: "Full CP should examine the fewest subsets; each ablation pays more work for identical results.",
	}
	var baseline []causality.Cause
	for vi, v := range variants {
		var batch stats.Batch
		var subsets int64
		for _, id := range w.nonAnswers {
			m, res, err := measure(func() (*causality.Result, error) {
				return causality.CP(w.ds, w.q, id, defaultAlpha, v.opts)
			})
			if err != nil {
				return err
			}
			batch.Record(m)
			subsets += res.SubsetsExamined
			// Every variant must agree with full CP on the first
			// non-answer (correctness guard for the ablation flags).
			if id == w.nonAnswers[0] {
				if vi == 0 {
					baseline = res.Causes
				} else if len(res.Causes) != len(baseline) {
					return fmt.Errorf("ablation %q changed the causes", v.name)
				}
			}
		}
		tab.AddRow(v.name, ms(batch.MeanCPU()), subsets)
	}
	tab.Render(cfg.Out)
	return nil
}

// PDFDemo exercises the Section-3.2 continuous-model pipeline end to end on
// uniform and Gaussian densities: explain a non-answer and report its
// causes, cross-checking against a discretized run of plain CP.
func PDFDemo(cfg Config) error {
	cfg.fillDefaults()
	n := cfg.scaled(2000)
	tab := stats.Table{
		Title:   "pdf model: CPPDF on uniform and Gaussian densities",
		Header:  []string{"pdf", "Pr(an)", "candidates", "causes", "top responsibility", "agrees with discretized CP"},
		Caption: "The continuous pipeline (exact masses + cubature) must agree with a finely discretized run.",
	}
	for _, kind := range []uncertain.PDFKind{uncertain.Uniform, uncertain.Gaussian} {
		gen := dataset.LUrU(n, 2, 0, 80, cfg.Seed)
		objs, err := dataset.GenerateUncertainPDF(gen, kind)
		if err != nil {
			return err
		}
		set, err := causality.NewPDFSet(objs)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(cfg.Seed + 3000))
		q := domainQuery(rng, 2, 10000)

		var res *causality.Result
		var anID int
		for _, id := range rng.Perm(set.Len()) {
			r, err := causality.CPPDF(set, q, id, defaultAlpha, causality.Options{MaxCandidates: cfg.NaiveMaxCandidates})
			if err == nil && r.Candidates > 0 {
				res, anID = r, id
				break
			}
		}
		if res == nil {
			return fmt.Errorf("experiments: no pdf non-answer found")
		}

		// Cross-check: discretize every object and run plain CP.
		disc := make([]*uncertain.Object, len(objs))
		drng := rand.New(rand.NewSource(cfg.Seed + 4000))
		for i, o := range objs {
			disc[i] = o.Discretize(64, drng)
		}
		dds := dataset.MustUncertain(disc)
		agree := "yes"
		dres, err := causality.CP(dds, q, anID, defaultAlpha, causality.Options{})
		if err != nil || !sameCauseIDs(res.Causes, dres.Causes) {
			agree = "approx"
		}
		top := 0.0
		if len(res.Causes) > 0 {
			top = res.Causes[0].Responsibility
		}
		tab.AddRow(kind.String(), res.Pr, res.Candidates, len(res.Causes), top, agree)
	}
	tab.Render(cfg.Out)
	return nil
}

func sameCauseIDs(a, b []causality.Cause) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[int]bool, len(a))
	for _, c := range a {
		seen[c.ID] = true
	}
	for _, c := range b {
		if !seen[c.ID] {
			return false
		}
	}
	return true
}
