package conformance

import (
	"context"
	"math/rand"
	"testing"

	crsky "github.com/crsky/crsky"
	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/uncertain"
)

// query is the one-point QueryCtx call the checks compare against their
// oracles; an engine error fails the test.
func query(t *testing.T, e crsky.Querier, q geom.Point, alpha float64, opts crsky.QueryOptions) []int {
	t.Helper()
	ids, _, err := e.QueryCtx(context.Background(), q, alpha, opts)
	if err != nil {
		t.Fatalf("q=%v alpha=%g: %v", q, alpha, err)
	}
	return ids
}

// TestConformanceSampleModel asserts every accelerated configuration of the
// discrete-sample engine against the naive per-object oracle on 200+
// randomized (dataset, query, threshold) cases.
func TestConformanceSampleModel(t *testing.T) {
	const workloads = 24 // x 3 queries x 3 alphas = 216 cases per variant
	forEachCaseSeed(t, 1_000, workloads, func(t *testing.T, seed int64) {
		w := newSampleWorkload(t, seed)
		eng, err := crsky.NewEngine(w.ds.Objects)
		if err != nil {
			t.Errorf("%v: %v", w, err)
			return
		}
		ieng := incrementalSampleEngine(t, w.ds.Objects)
		for _, q := range w.qs {
			for _, alpha := range w.alphas {
				want, _ := causality.NaivePRSQ(w.ds, q, alpha)
				for _, v := range Variants() {
					e := eng
					if v.Incremental {
						e = ieng
					}
					got, st, err := e.QueryCtx(context.Background(), q, alpha, v.Opt)
					if err != nil {
						t.Errorf("%v q=%v alpha=%g variant=%s: %v", w, q, alpha, v.Name, err)
						return
					}
					if !equalIDs(got, want) {
						t.Errorf("%v q=%v alpha=%g variant=%s: got %v, want %v",
							w, q, alpha, v.Name, got, want)
						return
					}
					if v.Incremental {
						continue // the tombstone slot skews the decided count
					}
					decided := st.EmptyCandidates + st.AcceptedByBound + st.RejectedByBound +
						st.AcceptedByTier2 + st.RejectedByTier2 + st.Evaluated
					if decided != w.ds.Len() {
						t.Errorf("%v q=%v alpha=%g variant=%s: stats decide %d of %d (%+v)",
							w, q, alpha, v.Name, decided, w.ds.Len(), st)
						return
					}
				}
			}
		}
	})
}

// TestConformancePDFModel asserts the continuous-model accelerated path
// against thresholding PDFEngine.Prob over every object, across both
// density kinds, on 200+ randomized cases.
func TestConformancePDFModel(t *testing.T) {
	const workloads = 25 // x 2 kinds x 2 queries x 2 alphas = 200 cases per variant
	forEachCaseSeed(t, 2_000, workloads, func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		dims := 2 + rng.Intn(2)
		n := 25 + rng.Intn(50)
		rmax := 80 + 900*rng.Float64()
		cfg := families[rng.Intn(len(families))](n, dims, 10, rmax, rng.Int63())
		quad := 3 + rng.Intn(3)
		qs := make([]geom.Point, 2)
		for i := range qs {
			qs[i] = randomQuery(rng, cfg)
		}
		alphas := []float64{0.2 + 0.6*rng.Float64(), 1}

		for _, kind := range []uncertain.PDFKind{uncertain.Uniform, uncertain.Gaussian} {
			objs, err := dataset.GenerateUncertainPDF(cfg, kind)
			if err != nil {
				t.Errorf("seed=%d kind=%v: %v", seed, kind, err)
				return
			}
			eng, err := crsky.NewPDFEngine(objs)
			if err != nil {
				t.Errorf("seed=%d kind=%v: %v", seed, kind, err)
				return
			}
			ieng := incrementalPDFEngine(t, objs)
			for _, q := range qs {
				for _, alpha := range alphas {
					want := pdfNaive(t, eng, q, alpha, quad)
					for _, v := range Variants() {
						e := eng
						if v.Incremental {
							e = ieng
						}
						opt := v.Opt
						opt.QuadNodes = quad
						got := query(t, e, q, alpha, opt)
						if !equalIDs(got, want) {
							t.Errorf("seed=%d kind=%v n=%d dims=%d quad=%d q=%v alpha=%g variant=%s: got %v, want %v",
								seed, kind, n, dims, quad, q, alpha, v.Name, got, want)
							return
						}
					}
				}
			}
		}
	})
}

// TestConformanceCertainModel cross-checks three independent certain-data
// engines on 200+ randomized cases spanning all four correlation families:
// the RecList traversal, the branch-and-bound BBRS query (QueryCtx), and the
// Section-4 reduction (degenerate sample objects at α = 1) running the full
// accelerated prsq pipeline.
func TestConformanceCertainModel(t *testing.T) {
	const workloads = 70 // x 3 queries = 210 cases per engine
	kinds := []dataset.CertainKind{
		dataset.Independent, dataset.Correlated, dataset.AntiCorrelated, dataset.Clustered,
	}
	forEachCaseSeed(t, 3_000, workloads, func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		cfg := dataset.CertainConfig{
			N:    40 + rng.Intn(260),
			Dims: 2 + rng.Intn(3),
			Kind: kinds[rng.Intn(len(kinds))],
			Seed: rng.Int63(),
		}
		ds, err := dataset.GenerateCertain(cfg)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		ce, err := crsky.NewCertainEngine(ds.Points)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		red, err := crsky.NewEngine(ds.AsUncertain().Objects)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		ice := incrementalCertainEngine(t, ds.Points)
		for i := 0; i < 3; i++ {
			q := make(geom.Point, cfg.Dims)
			for j := range q {
				q[j] = 10000 * (0.1 + 0.8*rng.Float64())
			}
			want := bruteReverseSkyline(ce, q)
			if got := query(t, ce, q, 1, crsky.QueryOptions{}); !equalIDs(got, want) {
				t.Errorf("seed=%d kind=%v q=%v: BBRS %v, brute force %v", seed, cfg.Kind, q, got, want)
				return
			}
			if got := query(t, ice, q, 1, crsky.QueryOptions{}); !equalIDs(got, want) {
				t.Errorf("seed=%d kind=%v q=%v: incremental BBRS %v, brute force %v", seed, cfg.Kind, q, got, want)
				return
			}
			for _, v := range Variants() {
				if v.Incremental {
					// The certain-model incremental lineage is asserted above
					// on the CertainEngine itself (COW index), where the
					// mutation path lives.
					continue
				}
				got := query(t, red, q, 1, v.Opt)
				if !equalIDs(got, want) {
					t.Errorf("seed=%d kind=%v q=%v variant=%s: reduction %v, brute force %v",
						seed, cfg.Kind, q, v.Name, got, want)
					return
				}
			}
		}
	})
}

// pdfNaive is the pdf model's naive oracle over eng's objects (nil for a
// tombstone), failing the test on a rejected quadrature grid.
func pdfNaive(t *testing.T, eng *crsky.PDFEngine, q geom.Point, alpha float64, quad int) []int {
	t.Helper()
	objs := make([]*uncertain.PDFObject, eng.Len())
	for i := range objs {
		objs[i] = eng.Object(i)
	}
	ids, err := prob.PRSQPDF(objs, q, alpha, quad)
	if err != nil {
		t.Fatal(err)
	}
	return ids
}
