package experiments

import (
	"encoding/json"
	"fmt"
	"os"
)

// ExplainCompare guards the explanation-path performance trajectory the same
// way PRSQCompare guards the query path: it loads two explain bench reports
// (typically a fresh run and the committed BENCH_explain.json) and fails
// when any (config, model, variant) cell present in both regressed. Absolute
// ms/explain is never compared — hardware differs between the committed file
// and the checking machine. The guard uses the two hardware-neutral signals:
//
//   - speedupVsNaive, a ratio of CPU times measured within one run (the
//     naive oracle and the refiners take interleaved turns on the same
//     machine), must not shrink by more than tolerance (0.20 = fail below
//     80% of the committed speedup);
//   - SubsetsExamined must not grow on any cell: the enumeration is
//     deterministic, so for pruning-only changes the count must hold exact
//     parity, and any growth is a real search-space regression.
//
// In addition the fresh report must keep three in-run invariants on every
// config where the cells appear: the branch-and-bound refiner examines
// strictly fewer subsets than the old refiner (the claim of the
// branch-and-bound rework), than itself without the minimum-repair seed
// (the claim of the seed) and than itself without the admissible bound
// (the claim of the bound).
func ExplainCompare(nextPath, prevPath string, tolerance float64) error {
	next, err := loadExplainReport(nextPath)
	if err != nil {
		return err
	}
	prev, err := loadExplainReport(prevPath)
	if err != nil {
		return err
	}
	type key struct {
		config, model, variant string
	}
	prevCells := make(map[key]explainResult, len(prev.Results))
	for _, r := range prev.Results {
		prevCells[key{r.Config, r.Model, r.Variant}] = r
	}
	var compared int
	for _, r := range next.Results {
		p, ok := prevCells[key{r.Config, r.Model, r.Variant}]
		if !ok {
			continue
		}
		compared++
		if p.SpeedupNaive > 0 && r.SpeedupNaive < p.SpeedupNaive*(1-tolerance) {
			return fmt.Errorf("experiments: explain regression at %s/%s/%s: %.1fx speedup vs naive, committed %.1fx (<%.0f%%)",
				r.Config, r.Model, r.Variant, r.SpeedupNaive, p.SpeedupNaive, (1-tolerance)*100)
		}
		if r.SubsetsExamined > p.SubsetsExamined {
			return fmt.Errorf("experiments: explain search-space regression at %s/%s/%s: %d subsets examined vs %d committed",
				r.Config, r.Model, r.Variant, r.SubsetsExamined, p.SubsetsExamined)
		}
	}
	if compared == 0 {
		return fmt.Errorf("experiments: %s and %s share no (config, model, variant) cells", nextPath, prevPath)
	}
	return explainInvariants(next, nextPath)
}

// explainInvariants checks the within-report claims: bb examines strictly
// fewer subsets than each baseline variant in the same config.
func explainInvariants(rep *explainReport, path string) error {
	type key struct{ config, model, variant string }
	cells := make(map[key]explainResult)
	for _, r := range rep.Results {
		cells[key{r.Config, r.Model, r.Variant}] = r
	}
	for k, b := range cells {
		if k.variant != "bb" {
			continue
		}
		for _, base := range []string{"old-refiner", "bb-norepairseed", "bb-noadmissible"} {
			o, ok := cells[key{k.config, k.model, base}]
			if ok && b.SubsetsExamined >= o.SubsetsExamined {
				return fmt.Errorf("experiments: %s: branch-and-bound examined %d subsets on %s/%s, not fewer than %s's %d",
					path, b.SubsetsExamined, k.config, k.model, base, o.SubsetsExamined)
			}
		}
	}
	return nil
}

func loadExplainReport(path string) (*explainReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	var rep explainReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("experiments: parsing %s: %w", path, err)
	}
	if rep.Experiment != "explain" {
		return nil, fmt.Errorf("experiments: %s is a %q report, want explain", path, rep.Experiment)
	}
	return &rep, nil
}
