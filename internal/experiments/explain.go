package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/stats"
	"github.com/crsky/crsky/internal/uncertain"
)

// ExplainBenchFile is the conventional Config.BenchFile value recording the
// explanation hot path's perf trajectory. Future PRs re-run the experiment
// (make bench-explain) and compare against the committed numbers with
// `make bench-explain-check`.
const ExplainBenchFile = "BENCH_explain.json"

// explainResult is one measured (config, model, variant) cell. Absolute
// milliseconds are machine-bound; the hardware-neutral signals are the
// within-run speedup columns and the deterministic SubsetsExamined count.
type explainResult struct {
	Config          string  `json:"config"`
	Model           string  `json:"model"`
	Variant         string  `json:"variant"`
	NonAnswers      int     `json:"nonAnswers"`
	MsPerExplain    float64 `json:"msPerExplain"`
	SubsetsExamined int64   `json:"subsetsExamined"`
	FilterNodeIO    int64   `json:"filterNodeAccesses"`
	SpeedupNaive    float64 `json:"speedupVsNaive,omitempty"`
	SpeedupOld      float64 `json:"speedupVsOld,omitempty"`
}

type explainReport struct {
	Experiment string          `json:"experiment"`
	Alpha      float64         `json:"alpha"`
	Seed       int64           `json:"seed"`
	Results    []explainResult `json:"results"`
}

// explainVariant is one refiner configuration under measurement.
type explainVariant struct {
	name  string
	naive bool // run NaiveI instead of CP
	opts  causality.Options
}

// oldRefinerOpts reproduces the pre-branch-and-bound refiner: plain
// cardinality-ascending enumeration with the paper lemmas but no admissible
// bound, no mass ordering and no repair seed.
func oldRefinerOpts() causality.Options {
	return causality.Options{NoAdmissible: true, NoMassOrder: true, NoRepairSeed: true}
}

func sampleExplainVariants() []explainVariant {
	return []explainVariant{
		{name: "naive", naive: true},
		{name: "old-refiner", opts: oldRefinerOpts()},
		{name: "bb", opts: causality.Options{}},
		{name: "bb-noadmissible", opts: causality.Options{NoAdmissible: true}},
		{name: "bb-norepairseed", opts: causality.Options{NoRepairSeed: true}},
	}
}

// ExplainBench measures the explanation hot path (CP / Algorithm 2 FMCS):
// the Naive-I oracle against the pre-branch-and-bound refiner and the
// branch-and-bound search, with single-flag ablations, on the sample model
// (n = 2k candidate-dense) and the pdf model. Beyond printing the table it
// writes BENCH_explain.json so the trajectory is tracked across PRs — run
// `make bench-explain` to refresh it and `make bench-explain-check` to
// compare a fresh run against the committed file (>20% speedup drop or any
// SubsetsExamined growth fails).
func ExplainBench(cfg Config) error {
	cfg.fillDefaults()
	const alpha = 0.85
	report := explainReport{Experiment: "explain", Alpha: alpha, Seed: cfg.Seed}
	tab := stats.Table{
		Title:  "Explain: naive vs old refiner vs branch-and-bound FMCS",
		Header: []string{"config", "model", "variant", "ms/explain", "subsets", "vs naive", "vs old"},
		Caption: "Identical causes and responsibilities across every row by construction; " +
			"subsets = contingency-set verifications, the work the bounds save.",
	}

	if err := explainBenchSample(&cfg, &report, &tab, alpha); err != nil {
		return err
	}
	if err := explainBenchPDF(&cfg, &report, &tab, alpha); err != nil {
		return err
	}

	tab.Render(cfg.Out)
	if cfg.BenchFile == "" {
		return nil
	}
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfg.BenchFile, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("experiments: writing %s: %w", cfg.BenchFile, err)
	}
	fmt.Fprintf(cfg.Out, "wrote %s\n", cfg.BenchFile)
	return nil
}

// selectDenseNonAnswers picks non-answers whose refinement pools are dense
// enough to make the old enumeration sweat while keeping the Naive-I oracle
// tractable (it enumerates subsets of the WHOLE candidate set).
func selectDenseNonAnswers(ds *dataset.Uncertain, q geom.Point, alpha float64,
	want, maxCand, minPool, maxPool int, rng *rand.Rand) []int {

	perm := rng.Perm(ds.Len())
	var picked []int
	for _, id := range perm {
		if len(picked) >= want {
			break
		}
		an := ds.Objects[id]
		candIDs := causality.FilterCandidates(ds, q, an)
		if len(candIDs) < minPool || len(candIDs) > maxCand {
			continue
		}
		e := prob.NewEvaluator(an, q, objectsByID(ds, candIDs))
		if prob.GEq(e.Pr(), alpha) {
			continue
		}
		pool := 0
		for j := 0; j < e.N(); j++ {
			if !e.AlwaysDominates(j) && !prob.GEq(e.PrWithout(j), alpha) {
				pool++
			}
		}
		if pool < minPool || pool > maxPool {
			continue
		}
		picked = append(picked, id)
	}
	sort.Ints(picked)
	return picked
}

func explainBenchSample(cfg *Config, report *explainReport, tab *stats.Table, alpha float64) error {
	n := cfg.scaled(2_000)
	ds, err := uncertainFamily("lUrU", n, 3, 0, 900, cfg.Seed)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 5000))
	q := domainQuery(rng, 3, 10000)
	runs := cfg.Runs
	if runs > 10 {
		runs = 10 // the naive oracle row bounds how many explains fit a CI run
	}
	// Selection ladder: the dense band first (the configuration the
	// committed trajectory measures), then progressively looser bands so
	// scaled-down smoke runs still exercise the full pipeline.
	var nonAnswers []int
	for _, band := range []struct{ minPool, maxPool, maxCand int }{
		{12, 17, 22}, {8, 14, 20}, {4, 10, 18}, {1, 8, 16},
	} {
		nonAnswers = selectDenseNonAnswers(ds, q, alpha, runs, band.maxCand, band.minPool, band.maxPool, rng)
		if len(nonAnswers) >= min(3, runs) {
			break
		}
	}
	if len(nonAnswers) == 0 {
		return fmt.Errorf("experiments: no candidate-dense non-answers found (n=%d)", n)
	}

	configName := "2k-dense"
	var naiveMs, oldMs float64
	for _, v := range sampleExplainVariants() {
		cell, err := measureExplainCell(cfg, nonAnswers, func(id int) (*causality.Result, error) {
			if v.naive {
				return causality.NaiveI(ds, q, id, alpha, causality.Options{})
			}
			return causality.CP(ds, q, id, alpha, v.opts)
		})
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", v.name, err)
		}
		cell.Config, cell.Model, cell.Variant = configName, "sample", v.name
		switch v.name {
		case "naive":
			naiveMs = cell.MsPerExplain
		case "old-refiner":
			oldMs = cell.MsPerExplain
		}
		if v.name != "naive" && cell.MsPerExplain > 0 {
			cell.SpeedupNaive = naiveMs / cell.MsPerExplain
		}
		if v.name != "naive" && v.name != "old-refiner" && cell.MsPerExplain > 0 {
			cell.SpeedupOld = oldMs / cell.MsPerExplain
		}
		report.add(tab, cell)
	}
	return nil
}

func explainBenchPDF(cfg *Config, report *explainReport, tab *stats.Table, alpha float64) error {
	n := cfg.scaled(2_000)
	gen := dataset.LUrU(n, 2, 0, 220, cfg.Seed+1)
	objs, err := dataset.GenerateUncertainPDF(gen, uncertain.Uniform)
	if err != nil {
		return err
	}
	set, err := causality.NewPDFSet(objs)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 6000))
	q := domainQuery(rng, 2, 10000)

	// Select pdf non-answers with populated candidate sets; the continuous
	// evaluator is the expensive part, so pools stay smaller than in the
	// sample configuration.
	var nonAnswers []int
	probe := oldRefinerOpts()
	probe.MaxCandidates = 18
	probe.MaxSubsets = 2_000_000
	for _, minCands := range []int{6, 3, 1} {
		perm := rng.Perm(set.Len())
		for _, id := range perm {
			if len(nonAnswers) >= 6 {
				break
			}
			r, err := causality.CPPDF(set, q, id, alpha, probe)
			if err != nil || r.Candidates < minCands {
				continue
			}
			nonAnswers = append(nonAnswers, id)
		}
		if len(nonAnswers) > 0 {
			break
		}
	}
	if len(nonAnswers) == 0 {
		return fmt.Errorf("experiments: no pdf non-answers found (n=%d)", n)
	}
	sort.Ints(nonAnswers)

	variants := []explainVariant{
		{name: "old-refiner", opts: oldRefinerOpts()},
		{name: "bb", opts: causality.Options{}},
		{name: "bb-noadmissible", opts: causality.Options{NoAdmissible: true}},
		{name: "bb-norepairseed", opts: causality.Options{NoRepairSeed: true}},
	}
	configName := "pdf"
	var oldMs float64
	for _, v := range variants {
		cell, err := measureExplainCell(cfg, nonAnswers, func(id int) (*causality.Result, error) {
			return causality.CPPDF(set, q, id, alpha, v.opts)
		})
		if err != nil {
			return fmt.Errorf("experiments: pdf %s: %w", v.name, err)
		}
		cell.Config, cell.Model, cell.Variant = configName, "pdf", v.name
		if v.name == "old-refiner" {
			oldMs = cell.MsPerExplain
		} else if cell.MsPerExplain > 0 {
			cell.SpeedupOld = oldMs / cell.MsPerExplain
		}
		report.add(tab, cell)
	}
	return nil
}

// measureExplainCell times explain over the non-answers in repeated passes
// (timedPasses) and records the first pass's deterministic counters.
func measureExplainCell(cfg *Config, nonAnswers []int, explain func(id int) (*causality.Result, error)) (explainResult, error) {
	cell := explainResult{NonAnswers: len(nonAnswers)}
	perPass, err := timedPasses(cfg.minTimedPass(), func(first bool) error {
		for _, id := range nonAnswers {
			res, err := explain(id)
			if err != nil {
				return fmt.Errorf("an=%d: %w", id, err)
			}
			if first {
				cell.SubsetsExamined += res.SubsetsExamined
				cell.FilterNodeIO += res.FilterNodeAccesses
			}
		}
		return nil
	})
	cell.MsPerExplain = ms(perPass) / float64(len(nonAnswers))
	return cell, err
}

// add records a measured cell in the report and as a table row.
func (r *explainReport) add(tab *stats.Table, cell explainResult) {
	r.Results = append(r.Results, cell)
	tab.AddRow(cell.Config, cell.Model, cell.Variant,
		fmt.Sprintf("%.2f", cell.MsPerExplain), fmt.Sprintf("%d", cell.SubsetsExamined),
		speedupCell(cell.SpeedupNaive), speedupCell(cell.SpeedupOld))
}

// minTimedPass is the least wall time one variant's measurement spans at
// Scale 1: seeded branch-and-bound explains take well under a millisecond,
// so one pass over the selected non-answers is too short for a stable
// ratio. It scales with Config.Scale, so scaled-down smoke runs stay quick.
func (c *Config) minTimedPass() time.Duration {
	return time.Duration(c.Scale * float64(250*time.Millisecond))
}

// timedPasses repeats pass until span has elapsed (at least once) and
// returns the mean wall time of one pass; first is true on the first pass
// only, the one whose deterministic counters a cell records.
func timedPasses(span time.Duration, pass func(first bool) error) (time.Duration, error) {
	start := time.Now()
	for n := 1; ; n++ {
		if err := pass(n == 1); err != nil {
			return 0, err
		}
		if elapsed := time.Since(start); elapsed >= span {
			return elapsed / time.Duration(n), nil
		}
	}
}

func speedupCell(s float64) string {
	if s == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", s)
}
