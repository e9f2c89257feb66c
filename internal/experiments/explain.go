package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"

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

// explainResult is one measured (config, model, variant) cell.
// MsPerExplain is wall-clock time and CPUMsPerExplain the process's CPU
// time (every thread, the garbage collector's included). Absolute
// milliseconds are machine-bound; the hardware-neutral signals are the
// within-run speedup columns, ratios of CPU times, and the deterministic
// SubsetsExamined count.
type explainResult struct {
	Config          string  `json:"config"`
	Model           string  `json:"model"`
	Variant         string  `json:"variant"`
	NonAnswers      int     `json:"nonAnswers"`
	MsPerExplain    float64 `json:"msPerExplain"`
	CPUMsPerExplain float64 `json:"cpuMsPerExplain"`
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
	name     string
	naive    bool // run NaiveI instead of CP
	opts     causality.Options
	oneRound bool // timed in the first of the interleaved rounds only
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
		Header: []string{"config", "model", "variant", "ms/explain", "CPU ms/explain", "subsets", "vs naive", "vs old"},
		Caption: "Identical causes and responsibilities across every row by construction; " +
			"subsets = contingency-set verifications, the work the bounds save; " +
			"speedups are ratios of CPU times over interleaved turns.",
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

	return measureExplainCells(cfg, report, tab, "2k-dense", "sample", nonAnswers, sampleExplainVariants(),
		func(v explainVariant, id int) (*causality.Result, error) {
			if v.naive {
				return causality.NaiveI(ds, q, id, alpha, causality.Options{})
			}
			return causality.CP(ds, q, id, alpha, v.opts)
		})
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

	// The old refiner takes over a second per pdf explanation, and its time
	// feeds only speedupVsOld, which no check reads; its subsetsExamined
	// comes from each non-answer's first explanation. One round of it is
	// enough.
	variants := []explainVariant{
		{name: "old-refiner", opts: oldRefinerOpts(), oneRound: true},
		{name: "bb", opts: causality.Options{}},
		{name: "bb-noadmissible", opts: causality.Options{NoAdmissible: true}},
		{name: "bb-norepairseed", opts: causality.Options{NoRepairSeed: true}},
	}
	return measureExplainCells(cfg, report, tab, "pdf", "pdf", nonAnswers, variants,
		func(v explainVariant, id int) (*causality.Result, error) {
			return causality.CPPDF(set, q, id, alpha, v.opts)
		})
}

// measureExplainCells times the variants of one config on the
// non-answers in interleaved turns (interleavedTurns, one input per
// non-answer) and adds a cell per variant to the report. A cell's times
// are the mean over the non-answers of one explanation's, its
// deterministic counters are summed over each non-answer's first
// explanation, and its speedups are ratios of CPU times: against the
// naive oracle and the old refiner when the config measures them.
func measureExplainCells(cfg *Config, report *explainReport, tab *stats.Table, config, model string, nonAnswers []int,
	variants []explainVariant, explain func(v explainVariant, id int) (*causality.Result, error)) error {

	cells := make([]explainResult, len(variants))
	oneRound := func(i int) bool { return variants[i].oneRound }
	tallies, err := interleavedTurns(len(variants), len(nonAnswers), cfg.minCellTime(), oneRound, func(i, k int, first bool) error {
		res, err := explain(variants[i], nonAnswers[k])
		if err != nil {
			return fmt.Errorf("experiments: %s %s: an=%d: %w", config, variants[i].name, nonAnswers[k], err)
		}
		if first {
			cells[i].SubsetsExamined += res.SubsetsExamined
			cells[i].FilterNodeIO += res.FilterNodeAccesses
		}
		return nil
	})
	if err != nil {
		return err
	}
	var naiveCPU, oldCPU float64
	for i, v := range variants {
		c := &cells[i]
		c.Config, c.Model, c.Variant, c.NonAnswers = config, model, v.name, len(nonAnswers)
		c.MsPerExplain = ms(tallies[i].wall)
		c.CPUMsPerExplain = ms(tallies[i].cpu)
		switch v.name {
		case "naive":
			naiveCPU = c.CPUMsPerExplain
		case "old-refiner":
			oldCPU = c.CPUMsPerExplain
		}
	}
	for i, v := range variants {
		c := &cells[i]
		if v.name != "naive" && naiveCPU > 0 && c.CPUMsPerExplain > 0 {
			c.SpeedupNaive = naiveCPU / c.CPUMsPerExplain
		}
		if v.name != "naive" && v.name != "old-refiner" && oldCPU > 0 && c.CPUMsPerExplain > 0 {
			c.SpeedupOld = oldCPU / c.CPUMsPerExplain
		}
		report.add(tab, *c)
	}
	return nil
}

// add records a measured cell in the report and as a table row.
func (r *explainReport) add(tab *stats.Table, cell explainResult) {
	r.Results = append(r.Results, cell)
	tab.AddRow(cell.Config, cell.Model, cell.Variant,
		fmt.Sprintf("%.2f", cell.MsPerExplain), fmt.Sprintf("%.2f", cell.CPUMsPerExplain),
		fmt.Sprintf("%d", cell.SubsetsExamined),
		speedupCell(cell.SpeedupNaive), speedupCell(cell.SpeedupOld))
}

func speedupCell(s float64) string {
	if s == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", s)
}
