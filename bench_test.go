// Repository-level benchmarks: one per table and figure of the paper's
// evaluation (Section 5). They exercise the same code paths as
// cmd/experiments but at bench-friendly cardinalities; run the command with
// -scale 1 for paper-scale sweeps.
//
//	go test -bench=. -benchmem
package crsky

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/experiments"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/skyline"
)

// benchN is the synthetic cardinality used by the benchmarks.
const benchN = 20_000

var benchCfg = experiments.Config{
	Seed:               1,
	Runs:               12,
	MaxPool:            14,
	MaxCandidates:      200,
	NaiveMaxCandidates: 12,
}

// --- cached workloads -------------------------------------------------

type cpWorkload struct {
	ds  *dataset.Uncertain
	q   geom.Point
	ids []int
}

var (
	cpCache   = map[string]*cpWorkload{}
	cpCacheMu sync.Mutex
)

func cpBenchWorkload(b *testing.B, family string, n, dims int, rmin, rmax, selectAlpha float64, maxCand int) *cpWorkload {
	b.Helper()
	key := fmt.Sprintf("%s/%d/%d/%g/%g/%g/%d", family, n, dims, rmin, rmax, selectAlpha, maxCand)
	cpCacheMu.Lock()
	defer cpCacheMu.Unlock()
	if w, ok := cpCache[key]; ok {
		return w
	}
	ds, q, ids, err := experiments.BenchWorkloadCP(benchCfg, family, n, dims, rmin, rmax, selectAlpha, maxCand)
	if err != nil {
		b.Fatal(err)
	}
	w := &cpWorkload{ds: ds, q: q, ids: ids}
	cpCache[key] = w
	return w
}

type crWorkload struct {
	ix  *skyline.Index
	q   geom.Point
	ids []int
}

var (
	crCache   = map[string]*crWorkload{}
	crCacheMu sync.Mutex
)

func crBenchWorkload(b *testing.B, kind dataset.CertainKind, n, dims, maxCand int) *crWorkload {
	b.Helper()
	key := fmt.Sprintf("%v/%d/%d/%d", kind, n, dims, maxCand)
	crCacheMu.Lock()
	defer crCacheMu.Unlock()
	if w, ok := crCache[key]; ok {
		return w
	}
	ix, q, ids, err := experiments.BenchWorkloadCR(benchCfg, kind, n, dims, maxCand)
	if err != nil {
		b.Fatal(err)
	}
	w := &crWorkload{ix: ix, q: q, ids: ids}
	crCache[key] = w
	return w
}

func (w *cpWorkload) runCP(b *testing.B, alpha float64, opts causality.Options) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := w.ids[i%len(w.ids)]
		if _, err := causality.CP(w.ds, w.q, id, alpha, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func (w *cpWorkload) runNaiveI(b *testing.B, alpha float64) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := w.ids[i%len(w.ids)]
		if _, err := causality.NaiveI(w.ds, w.q, id, alpha, causality.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func (w *crWorkload) runCR(b *testing.B) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := w.ids[i%len(w.ids)]
		if _, err := causality.CR(w.ix, w.q, id); err != nil {
			b.Fatal(err)
		}
	}
}

func (w *crWorkload) runNaiveII(b *testing.B) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := w.ids[i%len(w.ids)]
		if _, err := causality.NaiveII(w.ix, w.q, id, causality.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 3 / Table 4 -------------------------------------------------

// BenchmarkTable3NBACaseStudy: CP on the NBA stand-in at the paper's query.
func BenchmarkTable3NBACaseStudy(b *testing.B) {
	nba := dataset.GenerateNBA(benchCfg.Seed)
	q := geom.Point{3500, 1500, 600, 800}
	// Locate one explainable player once.
	anID := -1
	for id := 0; id < nba.Len(); id++ {
		if _, err := causality.CP(nba.Uncertain, q, id, 0.5,
			causality.Options{MaxCandidates: 60, MaxSubsets: 100_000}); err == nil {
			anID = id
			break
		}
	}
	if anID < 0 {
		b.Fatal("no explainable player")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := causality.CP(nba.Uncertain, q, anID, 0.5, causality.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4CarDBCaseStudy: CR on the CarDB stand-in.
func BenchmarkTable4CarDBCaseStudy(b *testing.B) {
	ix, q, ids, err := experiments.BenchWorkloadCarDB(benchCfg, benchCfg.MaxCandidates)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := causality.CR(ix, q, ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 6: CP vs Naive-I ---------------------------------------------

func BenchmarkFig6(b *testing.B) {
	for _, family := range []string{"lUrU", "lUrG", "lSrU", "lSrG"} {
		w := cpBenchWorkload(b, family, benchN, 3, 0, 5, 0.6, benchCfg.NaiveMaxCandidates)
		b.Run("CP/"+family, func(b *testing.B) { w.runCP(b, 0.6, causality.Options{}) })
		b.Run("NaiveI/"+family, func(b *testing.B) { w.runNaiveI(b, 0.6) })
	}
}

// --- Fig. 7: CP vs alpha -----------------------------------------------

func BenchmarkFig7Alpha(b *testing.B) {
	w := cpBenchWorkload(b, "lUrU", benchN, 3, 0, 5, 0.2, benchCfg.MaxCandidates)
	for _, alpha := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		alpha := alpha
		b.Run(fmt.Sprintf("alpha=%.1f", alpha), func(b *testing.B) {
			w.runCP(b, alpha, causality.Options{})
		})
	}
}

// --- Fig. 8: CP vs radius ----------------------------------------------

func BenchmarkFig8Radius(b *testing.B) {
	for _, r := range [][2]float64{{0, 2}, {0, 3}, {0, 5}, {0, 8}, {0, 10}} {
		r := r
		b.Run(fmt.Sprintf("r=%g-%g", r[0], r[1]), func(b *testing.B) {
			w := cpBenchWorkload(b, "lUrU", benchN, 3, r[0], r[1], 0.6, benchCfg.MaxCandidates)
			w.runCP(b, 0.6, causality.Options{})
		})
	}
}

// --- Fig. 9: CP vs dimensionality ---------------------------------------

func BenchmarkFig9Dims(b *testing.B) {
	for d := 2; d <= 5; d++ {
		d := d
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			w := cpBenchWorkload(b, "lUrU", benchN, d, 0, 5, 0.6, benchCfg.MaxCandidates)
			w.runCP(b, 0.6, causality.Options{})
		})
	}
}

// --- Fig. 10: CP vs cardinality -----------------------------------------

func BenchmarkFig10Cardinality(b *testing.B) {
	for _, n := range []int{2_000, 10_000, 20_000, 100_000, 200_000} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			w := cpBenchWorkload(b, "lUrU", n, 3, 0, 5, 0.6, benchCfg.MaxCandidates)
			w.runCP(b, 0.6, causality.Options{})
		})
	}
}

// --- Fig. 11: CR vs Naive-II ---------------------------------------------

func BenchmarkFig11(b *testing.B) {
	kinds := []dataset.CertainKind{
		dataset.Independent, dataset.Correlated, dataset.Clustered, dataset.AntiCorrelated,
	}
	for _, kind := range kinds {
		w := crBenchWorkload(b, kind, benchN, 3, benchCfg.NaiveMaxCandidates)
		b.Run("CR/"+kind.String(), func(b *testing.B) { w.runCR(b) })
		b.Run("NaiveII/"+kind.String(), func(b *testing.B) { w.runNaiveII(b) })
	}
}

// --- Fig. 12: CR vs dimensionality ---------------------------------------

func BenchmarkFig12Dims(b *testing.B) {
	for d := 2; d <= 5; d++ {
		d := d
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			w := crBenchWorkload(b, dataset.Independent, benchN, d, benchCfg.MaxCandidates)
			w.runCR(b)
		})
	}
}

// --- Fig. 13: CR vs cardinality -------------------------------------------

func BenchmarkFig13Cardinality(b *testing.B) {
	for _, n := range []int{2_000, 10_000, 20_000, 100_000, 200_000} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			w := crBenchWorkload(b, dataset.Independent, n, 3, benchCfg.MaxCandidates)
			w.runCR(b)
		})
	}
}

// --- Ablations (DESIGN.md design choices) --------------------------------

func BenchmarkAblation(b *testing.B) {
	w := cpBenchWorkload(b, "lUrU", benchN, 3, 0, 5, 0.6, benchCfg.NaiveMaxCandidates)
	variants := []struct {
		name string
		opts causality.Options
	}{
		{"full", causality.Options{}},
		{"noLemma4", causality.Options{NoLemma4: true}},
		{"noLemma5", causality.Options{NoLemma5: true}},
		{"noLemma6", causality.Options{NoLemma6: true}},
		{"noPrune", causality.Options{NoPrune: true}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) { w.runCP(b, 0.6, v.opts) })
	}
}

// --- PRSQ: indexed vs naive query path -------------------------------------

type prsqWorkload struct {
	eng *Engine
	q   geom.Point
}

var (
	prsqCache   = map[int]*prsqWorkload{}
	prsqCacheMu sync.Mutex
)

func prsqBenchWorkload(b *testing.B, n int) *prsqWorkload {
	b.Helper()
	prsqCacheMu.Lock()
	defer prsqCacheMu.Unlock()
	if w, ok := prsqCache[n]; ok {
		return w
	}
	ds, err := dataset.GenerateUncertain(dataset.LUrU(n, 3, 0, 5, benchCfg.Seed))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewEngine(ds.Objects)
	if err != nil {
		b.Fatal(err)
	}
	eng.Warm()
	w := &prsqWorkload{eng: eng, q: geom.Point{5000, 5000, 5000}}
	prsqCache[n] = w
	return w
}

// BenchmarkPRSQ measures the whole-dataset probabilistic reverse skyline
// query: the naive per-object loop (one R-tree traversal + one full Eq.-2
// evaluation per object) against the indexed batch path (one R-tree
// self-join, MBR bound pruning), serial and parallel. "nodes/op" reports
// the paper's simulated-I/O metric per query.
func BenchmarkPRSQ(b *testing.B) {
	const alpha = 0.5
	for _, n := range []int{2_000, 20_000} {
		w := prsqBenchWorkload(b, n)
		variants := []struct {
			name string
			run  func() []int
		}{
			{"naive", func() []int { return w.eng.ProbabilisticReverseSkylineNaive(w.q, alpha) }},
			{"indexed-serial", func() []int {
				ids, _, _ := w.eng.QueryCtx(context.Background(), w.q, alpha, QueryOptions{Parallel: 1})
				return ids
			}},
			{"indexed-parallel", func() []int {
				ids, _, _ := w.eng.QueryCtx(context.Background(), w.q, alpha, QueryOptions{})
				return ids
			}},
		}
		for _, v := range variants {
			v := v
			b.Run(fmt.Sprintf("n=%d/%s", n, v.name), func(b *testing.B) {
				w.eng.ResetCounters()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v.run()
				}
				b.StopTimer()
				b.ReportMetric(float64(w.eng.NodeAccesses())/float64(b.N), "nodes/op")
			})
		}
	}
}

// --- pdf model -------------------------------------------------------------

func BenchmarkPDFExplain(b *testing.B) {
	objs, err := dataset.GenerateUncertainPDF(dataset.LUrU(2_000, 2, 0, 80, 1), 0)
	if err != nil {
		b.Fatal(err)
	}
	set, err := causality.NewPDFSet(objs)
	if err != nil {
		b.Fatal(err)
	}
	q := geom.Point{5000, 5000}
	anID := -1
	for id := 0; id < set.Len(); id++ {
		if _, err := causality.CPPDF(set, q, id, 0.6, causality.Options{MaxCandidates: 12}); err == nil {
			anID = id
			break
		}
	}
	if anID < 0 {
		b.Skip("no pdf non-answer at this seed")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := causality.CPPDF(set, q, anID, 0.6, causality.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
