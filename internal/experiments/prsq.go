package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/prsq"
	"github.com/crsky/crsky/internal/stats"
	"github.com/crsky/crsky/internal/uncertain"
)

// PRSQBenchFile is the conventional Config.BenchFile value recording the
// perf trajectory. Future PRs re-run the experiment (make bench-prsq) and
// compare against the committed numbers.
const PRSQBenchFile = "BENCH_prsq.json"

// prsqResult is one measured (cardinality, variant) cell.
type prsqResult struct {
	N            int     `json:"n"`
	Variant      string  `json:"variant"`
	MsPerQuery   float64 `json:"msPerQuery"`
	NodeAccesses int64   `json:"nodeAccessesPerQuery"`
	Answers      int     `json:"answers"`
	SpeedupNaive float64 `json:"speedupVsNaive"`
}

type prsqReport struct {
	Experiment string       `json:"experiment"`
	Alpha      float64      `json:"alpha"`
	Dims       int          `json:"dims"`
	Family     string       `json:"family"`
	Seed       int64        `json:"seed"`
	Results    []prsqResult `json:"results"`
}

// PRSQBench measures the whole-dataset probabilistic reverse skyline query:
// the naive per-object loop against the indexed batch path (internal/prsq),
// serial and parallel, at two cardinalities. Beyond printing the table it
// writes BENCH_prsq.json so the performance trajectory is tracked across
// PRs — run `make bench-prsq` (or `cmd/experiments -exp prsq -scale 1`) to
// refresh it.
func PRSQBench(cfg Config) error {
	cfg.fillDefaults()
	const (
		alpha  = 0.5
		dims   = 3
		family = "lUrU"
	)
	rng := rand.New(rand.NewSource(cfg.Seed))
	report := prsqReport{
		Experiment: "prsq",
		Alpha:      alpha,
		Dims:       dims,
		Family:     family,
		Seed:       cfg.Seed,
	}
	tab := stats.Table{
		Title:  "PRSQ: naive per-object loop vs indexed batch query",
		Header: []string{"n", "variant", "ms/query", "node accesses", "answers", "speedup"},
		Caption: "Indexed = one R-tree self-join + online MBR bounds + parallel exact evaluation; " +
			"identical answer sets by construction.",
	}

	for _, base := range []int{2_000, 20_000} {
		n := cfg.scaled(base)
		ds, err := uncertainFamily(family, n, dims, 0, 5, cfg.Seed)
		if err != nil {
			return err
		}
		var counter stats.Counter
		ds.Tree().SetCounter(&counter)
		// Warm the derived per-object caches so every variant measures
		// steady-state query cost, not one-time builds.
		ds.WeightSums()
		ds.Summaries()
		q := domainQuery(rng, dims, 10000)

		variants := []struct {
			name string
			reps int
			run  func() []int
		}{
			{"naive", 1, func() []int { return naivePRSQ(ds, q, alpha) }},
			{"indexed-serial", 3, func() []int {
				return indexedPRSQ(ds, q, alpha, prsq.Options{Parallel: 1})
			}},
			{"indexed-notier2", 3, func() []int {
				return indexedPRSQ(ds, q, alpha, prsq.Options{Parallel: 1, NoTier2: true})
			}},
			{"indexed-parallel", 3, func() []int {
				return indexedPRSQ(ds, q, alpha, prsq.Options{})
			}},
		}

		var naiveMs float64
		for _, v := range variants {
			counter.Reset()
			var answers int
			start := time.Now()
			for r := 0; r < v.reps; r++ {
				answers = len(v.run())
			}
			msPer := ms(time.Since(start)) / float64(v.reps)
			nodes := counter.Value() / int64(v.reps)
			speedup := 1.0
			if v.name == "naive" {
				naiveMs = msPer
			} else if msPer > 0 {
				speedup = naiveMs / msPer
			}
			report.Results = append(report.Results, prsqResult{
				N: n, Variant: v.name, MsPerQuery: msPer,
				NodeAccesses: nodes, Answers: answers, SpeedupNaive: speedup,
			})
			tab.AddRow(fmt.Sprintf("%d", n), v.name,
				fmt.Sprintf("%.2f", msPer), fmt.Sprintf("%d", nodes),
				fmt.Sprintf("%d", answers), fmt.Sprintf("%.1fx", speedup))
		}
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

// indexedPRSQ is the indexed query on one point (a batch of one).
func indexedPRSQ(ds *dataset.Uncertain, q geom.Point, alpha float64, opt prsq.Options) []int {
	out, _, _ := prsq.QueryBatchStreamStatsCtx(context.Background(), ds, []geom.Point{q}, alpha, opt, nil)
	return out[0]
}

// naivePRSQ is the pre-acceleration query loop: one candidate-filter
// traversal plus one full Eq.-2 evaluation per object.
func naivePRSQ(ds *dataset.Uncertain, q geom.Point, alpha float64) []int {
	var out []int
	for id := 0; id < ds.Len(); id++ {
		an := ds.Objects[id]
		candIDs := causality.FilterCandidates(ds, q, an)
		cands := make([]*uncertain.Object, len(candIDs))
		for i, cid := range candIDs {
			cands[i] = ds.Objects[cid]
		}
		if prob.GEq(prob.PrReverseSkyline(an, q, cands), alpha) {
			out = append(out, id)
		}
	}
	return out
}
