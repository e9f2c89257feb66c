package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"syscall"
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

// prsqResult is one measured (cardinality, variant) cell. MsPerQuery is
// wall-clock time and CPUMsPerQuery the process's CPU time (every thread,
// the garbage collector's included); SpeedupNaive is the ratio of CPU
// times. EntriesScanned is the indexed join's rectangle tests
// (prsq.Stats.EntriesScanned), absent for the naive loop.
type prsqResult struct {
	N              int     `json:"n"`
	Variant        string  `json:"variant"`
	MsPerQuery     float64 `json:"msPerQuery"`
	CPUMsPerQuery  float64 `json:"cpuMsPerQuery"`
	NodeAccesses   int64   `json:"nodeAccessesPerQuery"`
	EntriesScanned int64   `json:"entriesScannedPerQuery,omitempty"`
	Answers        int     `json:"answers"`
	SpeedupNaive   float64 `json:"speedupVsNaive"`
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
		Header: []string{"n", "variant", "ms/query", "CPU ms/query", "node accesses", "entries scanned", "answers", "speedup"},
		Caption: "Indexed = one R-tree self-join + online MBR bounds + parallel exact evaluation; " +
			"identical answer sets by construction. Speedup = naive CPU time / variant CPU time.",
	}

	for _, base := range []int{2_000, 20_000} {
		n := cfg.scaled(base)
		ds, err := uncertainFamily(family, n, dims, 0, 5, cfg.Seed)
		if err != nil {
			return err
		}
		// Warm the derived per-object caches so every variant measures
		// steady-state query cost, not one-time builds.
		ds.WeightSums()
		ds.Summaries()
		q := domainQuery(rng, dims, 10000)

		indexed := func(opt prsq.Options) func() ([]int, prsq.Stats) {
			return func() ([]int, prsq.Stats) { return indexedPRSQ(ds, q, alpha, opt) }
		}
		variants := []struct {
			name string
			run  func() ([]int, prsq.Stats)
		}{
			{"naive", func() ([]int, prsq.Stats) {
				ids, nodes := naivePRSQ(ds, q, alpha)
				return ids, prsq.Stats{NodeAccesses: nodes}
			}},
			{"indexed-serial", indexed(prsq.Options{Parallel: 1})},
			{"indexed-notier2", indexed(prsq.Options{Parallel: 1, NoTier2: true})},
			{"indexed-parallel", indexed(prsq.Options{})},
		}

		// The variants take turns over prsqRounds rounds, and each turn
		// repeats its query for at least minTime/prsqRounds (one second
		// per cell at paper scale) and at least once. The speedup is a
		// ratio of process CPU times: a drift of the machine's speed
		// during a run then reaches naive and indexed alike, and time the
		// process spends descheduled counts for neither. A collection
		// before each turn keeps one variant's garbage out of the next
		// one's CPU time.
		minTime := time.Duration(cfg.Scale * float64(time.Second))
		type cell struct {
			reps           int
			wall, cpu      time.Duration
			answers        int
			nodes, entries int64
		}
		cells := make([]cell, len(variants))
		for round := 0; round < prsqRounds; round++ {
			for i, v := range variants {
				c := &cells[i]
				runtime.GC()
				start, cpu0 := time.Now(), processCPU()
				for turn := 0; turn == 0 || time.Since(start) < minTime/prsqRounds; turn++ {
					ids, st := v.run()
					c.answers = len(ids)
					c.nodes += st.NodeAccesses
					c.entries += st.EntriesScanned
					c.reps++
				}
				c.wall += time.Since(start)
				c.cpu += processCPU() - cpu0
			}
		}
		naiveCPU := ms(cells[0].cpu) / float64(cells[0].reps)
		for i, v := range variants {
			c := cells[i]
			reps := float64(c.reps)
			res := prsqResult{
				N: n, Variant: v.name,
				MsPerQuery: ms(c.wall) / reps, CPUMsPerQuery: ms(c.cpu) / reps,
				NodeAccesses: c.nodes / int64(c.reps), EntriesScanned: c.entries / int64(c.reps),
				Answers: c.answers, SpeedupNaive: 1,
			}
			if i > 0 && res.CPUMsPerQuery > 0 {
				res.SpeedupNaive = naiveCPU / res.CPUMsPerQuery
			}
			report.Results = append(report.Results, res)
			tab.AddRow(fmt.Sprintf("%d", n), v.name,
				fmt.Sprintf("%.2f", res.MsPerQuery), fmt.Sprintf("%.2f", res.CPUMsPerQuery),
				fmt.Sprintf("%d", res.NodeAccesses), fmt.Sprintf("%d", res.EntriesScanned),
				fmt.Sprintf("%d", res.Answers), fmt.Sprintf("%.1fx", res.SpeedupNaive))
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

// prsqRounds is the number of turns each PRSQBench variant takes.
const prsqRounds = 3

// processCPU is the CPU time, user plus system, that every thread of the
// process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// indexedPRSQ is the indexed query on one point (a batch of one), with its
// statistics.
func indexedPRSQ(ds *dataset.Uncertain, q geom.Point, alpha float64, opt prsq.Options) ([]int, prsq.Stats) {
	out, st, _ := prsq.QueryBatchStreamStatsCtx(context.Background(), ds, []geom.Point{q}, alpha, opt, nil)
	return out[0], st
}

// naivePRSQ is the pre-acceleration query loop: one candidate-filter
// traversal plus one full Eq.-2 evaluation per object. It returns the
// answers with the node accesses of all the filter traversals.
func naivePRSQ(ds *dataset.Uncertain, q geom.Point, alpha float64) ([]int, int64) {
	var out []int
	var accesses int64
	for id := 0; id < ds.Len(); id++ {
		an := ds.Objects[id]
		candIDs, n := causality.FilterCandidatesCounted(ds, q, an)
		accesses += n
		cands := make([]*uncertain.Object, len(candIDs))
		for i, cid := range candIDs {
			cands[i] = ds.Objects[cid]
		}
		if prob.GEq(prob.PrReverseSkyline(an, q, cands), alpha) {
			out = append(out, id)
		}
	}
	return out, accesses
}
