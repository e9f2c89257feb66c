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
	"github.com/crsky/crsky/internal/prsq"
	"github.com/crsky/crsky/internal/stats"
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
// with and without the second bound tier, at two cardinalities. Beyond
// printing the table it writes BENCH_prsq.json so the performance
// trajectory is tracked across PRs — run `make bench-prsq` (or
// `cmd/experiments -exp prsq -scale 1`) to refresh it.
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
		Caption: "Indexed = one R-tree self-join + online MBR bounds + exact evaluation of the undecided band; " +
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
				ids, nodes := causality.NaivePRSQ(ds, q, alpha)
				return ids, prsq.Stats{NodeAccesses: nodes}
			}},
			{"indexed-serial", indexed(prsq.Options{})},
			{"indexed-notier2", indexed(prsq.Options{NoTier2: true})},
		}

		// The variants take interleaved turns (see interleavedTurns), so
		// the speedup is a ratio of process CPU times that a drift of the
		// machine's speed reaches on both sides.
		type cell struct {
			answers        int
			nodes, entries int64
		}
		cells := make([]cell, len(variants))
		// The query never fails, so neither can the measurement.
		tallies, _ := interleavedTurns(len(variants), 1, cfg.minCellTime(), nil, func(i, _ int, _ bool) error {
			ids, st := variants[i].run()
			c := &cells[i]
			c.answers = len(ids)
			c.nodes += st.NodeAccesses
			c.entries += st.EntriesScanned
			return nil
		})
		naiveCPU := ms(tallies[0].cpu)
		for i, v := range variants {
			c, t := cells[i], tallies[i]
			res := prsqResult{
				N: n, Variant: v.name,
				MsPerQuery: ms(t.wall), CPUMsPerQuery: ms(t.cpu),
				NodeAccesses: c.nodes / int64(t.reps), EntriesScanned: c.entries / int64(t.reps),
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

// benchRounds is the number of turns each variant of an interleaved
// measurement takes.
const benchRounds = 3

// turnTally is one variant's share of an interleaved measurement: its
// repetitions over every input, and the wall and process CPU time of one
// repetition, averaged over the inputs with equal weight.
type turnTally struct {
	reps      int
	wall, cpu time.Duration
}

// interleavedTurns measures n variants on m inputs. Over benchRounds
// rounds, each input in turn is run by every variant, one after another:
// a turn repeats rep(i, k, first) on input k for at least
// minTime/(benchRounds·m) and at least once, so a variant spans at least
// minTime. first is true on the first repetition of (i, k) only. Since
// the variants' turns on an input follow each other closely, a change of
// the machine's speed during a run reaches every variant alike, so a
// speedup taken as a ratio of the tallies' CPU times holds still; time
// the process spends descheduled counts for none. A collection before
// each turn keeps one variant's garbage out of the next one's CPU time. A
// variant i for which oneRound(i) holds takes its turns in the first round
// only; a nil oneRound gives every variant every round.
func interleavedTurns(n, m int, minTime time.Duration, oneRound func(i int) bool, rep func(i, k int, first bool) error) ([]turnTally, error) {
	units := make([]turnTally, n*m) // units[i*m+k]: variant i on input k, summed
	turn := minTime / time.Duration(benchRounds*m)
	for round := 0; round < benchRounds; round++ {
		for k := 0; k < m; k++ {
			for i := 0; i < n; i++ {
				if round > 0 && oneRound != nil && oneRound(i) {
					continue
				}
				u := &units[i*m+k]
				runtime.GC()
				start, cpu0 := time.Now(), processCPU()
				for r := 0; r == 0 || time.Since(start) < turn; r++ {
					if err := rep(i, k, u.reps == 0); err != nil {
						return nil, err
					}
					u.reps++
				}
				u.wall += time.Since(start)
				u.cpu += processCPU() - cpu0
			}
		}
	}
	tallies := make([]turnTally, n)
	for i := range tallies {
		t := &tallies[i]
		for _, u := range units[i*m : (i+1)*m] {
			t.reps += u.reps
			t.wall += u.wall / time.Duration(u.reps)
			t.cpu += u.cpu / time.Duration(u.reps)
		}
		t.wall /= time.Duration(m)
		t.cpu /= time.Duration(m)
	}
	return tallies, nil
}

// minCellTime is the least time one variant's measurement spans at Scale
// 1; it scales with Config.Scale, so scaled-down smoke runs stay quick.
func (c *Config) minCellTime() time.Duration {
	return time.Duration(c.Scale * float64(time.Second))
}

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
