package conformance

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	crsky "github.com/crsky/crsky"
	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/skyline"
	"github.com/crsky/crsky/internal/uncertain"
)

// certainPoints returns e's points by ID, nil for a tombstone.
func certainPoints(e *crsky.CertainEngine) []geom.Point {
	pts := make([]geom.Point, e.Len())
	for i := range pts {
		pts[i] = e.Point(i)
	}
	return pts
}

// bruteReverseSkyline is the certain-data query oracle: the pairwise
// reverse skyline over e's live points, independent of the R-tree.
func bruteReverseSkyline(e *crsky.CertainEngine, q geom.Point) []int {
	return skyline.BruteReverseSkyline(certainPoints(e), q)
}

// certainMember is the certain-data membership oracle: no other live point
// of e dominates q w.r.t. the live point an (Definition 3), by a pairwise
// scan independent of the R-tree.
func certainMember(e *crsky.CertainEngine, an int, q geom.Point) bool {
	var others []geom.Point
	for i, p := range certainPoints(e) {
		if p != nil && i != an {
			others = append(others, p)
		}
	}
	return skyline.IsReverseSkylineMember(e.Point(an), q, others)
}

// checkProbes asserts ProbCtx on e for query q against the membership
// oracle inAnswer at every alpha: for every live ID, prob.GEq(pr, alpha)
// must equal membership and the probe must report node accesses; want,
// when non-nil, pins the value itself. Tombstones and out-of-range IDs
// must fail with ErrBadObject, and a canceled context with
// context.Canceled.
func checkProbes(t *testing.T, label string, e crsky.Querier, live func(id int) bool, q geom.Point, opts crsky.QueryOptions,
	alphas []float64, inAnswer func(alpha float64) []int, want func(id int) float64) {

	t.Helper()
	ctx := context.Background()
	answers := make([][]int, len(alphas))
	for i, alpha := range alphas {
		answers[i] = inAnswer(alpha)
	}
	for id := -1; id <= e.Len(); id++ {
		pr, st, err := e.ProbCtx(ctx, id, q, opts)
		if !(id >= 0 && id < e.Len() && live(id)) {
			if !errors.Is(err, crsky.ErrBadObject) {
				t.Errorf("%s q=%v id=%d: err = %v, want ErrBadObject", label, q, id, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s q=%v id=%d: %v", label, q, id, err)
			return
		}
		if st.NodeAccesses <= 0 {
			t.Errorf("%s q=%v id=%d: probe reports %d node accesses", label, q, id, st.NodeAccesses)
			return
		}
		if want != nil {
			if w := want(id); pr != w {
				t.Errorf("%s q=%v id=%d: ProbCtx = %v, want %v bit for bit", label, q, id, pr, w)
				return
			}
		}
		for i, alpha := range alphas {
			if prob.GEq(pr, alpha) != slices.Contains(answers[i], id) {
				t.Errorf("%s q=%v alpha=%g id=%d: Pr = %v, naive answer %v", label, q, alpha, id, pr, answers[i])
				return
			}
		}
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	for id := 0; id < e.Len(); id++ {
		if live(id) {
			if _, _, err := e.ProbCtx(canceled, id, q, opts); !errors.Is(err, context.Canceled) {
				t.Errorf("%s: ProbCtx under a canceled context: %v", label, err)
			}
			break
		}
	}
}

// liveSample is ds with the objects e has deleted deleted too: the dataset
// the sample-model naive oracle runs on for an engine derived from ds. The
// slots e has past ds's end are tombstones (the incremental rebuild's
// decoy), so the oracle answers none of them either.
func liveSample(t *testing.T, ds *dataset.Uncertain, e *crsky.Engine) *dataset.Uncertain {
	t.Helper()
	for id := 0; id < ds.Len(); id++ {
		if e.Object(id) == nil {
			var err error
			if ds, err = ds.WithDelete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ds
}

// namedEngine is one engine lineage a probe check runs on.
type namedEngine struct {
	name string
	e    crsky.Explainer
}

// derivedEngines returns base, its incremental rebuild and base with one
// random live object deleted, so the probes meet tombstones inside the ID
// range as well as at its end.
func derivedEngines(t *testing.T, rng *rand.Rand, base, incremental crsky.Explainer) []namedEngine {
	t.Helper()
	del, err := base.WithDelete(rng.Intn(base.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return []namedEngine{{"base", base}, {"incremental", incremental}, {"deleted", del}}
}

// TestConformanceProbCtx asserts the one-object membership probe on all
// three models against the naive oracles, on engines built from scratch
// and derived through WithInsert and WithDelete: the sample and pdf models
// against thresholding their naive oracles, causality.NaivePRSQ and
// prob.PRSQPDF (the pdf value also bit for bit against Eq. 2 integrated
// over all objects), certain data against the pairwise reverse skyline over
// the live points.
func TestConformanceProbCtx(t *testing.T) {
	t.Run("sample", func(t *testing.T) {
		forEachCaseSeed(t, 31_000, 10, func(t *testing.T, seed int64) {
			w := newSampleWorkload(t, seed)
			base, err := crsky.NewEngine(w.ds.Objects)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			for _, ne := range derivedEngines(t, rng, base, incrementalSampleEngine(t, w.ds.Objects)) {
				name, e := ne.name, ne.e.(*crsky.Engine)
				live := func(id int) bool { return e.Object(id) != nil }
				ds := liveSample(t, w.ds, e)
				for _, q := range w.qs {
					checkProbes(t, w.String()+" "+name, e, live, q, crsky.QueryOptions{}, w.alphas,
						func(alpha float64) []int {
							ids, _ := causality.NaivePRSQ(ds, q, alpha)
							return ids
						}, nil)
				}
			}
		})
	})

	t.Run("pdf", func(t *testing.T) {
		forEachCaseSeed(t, 32_000, 6, func(t *testing.T, seed int64) {
			rng := rand.New(rand.NewSource(seed))
			dims := 2 + rng.Intn(2)
			cfg := families[rng.Intn(len(families))](20+rng.Intn(30), dims, 10, 80+900*rng.Float64(), rng.Int63())
			quad := 3 + rng.Intn(2)
			q := randomQuery(rng, cfg)
			alphas := []float64{0.2 + 0.6*rng.Float64(), 1}
			for _, kind := range []uncertain.PDFKind{uncertain.Uniform, uncertain.Gaussian} {
				objs, err := dataset.GenerateUncertainPDF(cfg, kind)
				if err != nil {
					t.Fatal(err)
				}
				base, err := crsky.NewPDFEngine(objs)
				if err != nil {
					t.Fatal(err)
				}
				for _, ne := range derivedEngines(t, rng, base, incrementalPDFEngine(t, objs)) {
					name, e := ne.name, ne.e.(*crsky.PDFEngine)
					all := make([]*uncertain.PDFObject, e.Len())
					for i := range all {
						all[i] = e.Object(i)
					}
					label := fmt.Sprintf("seed=%d n=%d dims=%d quad=%d kind=%v %s", seed, cfg.N, dims, quad, kind, name)
					checkProbes(t, label, e, func(id int) bool { return all[id] != nil }, q, crsky.QueryOptions{QuadNodes: quad}, alphas,
						func(alpha float64) []int { return pdfNaive(t, e, q, alpha, quad) },
						func(id int) float64 { return prob.PrReverseSkylinePDF(all[id], q, all, quad) })
					first := slices.IndexFunc(all, func(o *uncertain.PDFObject) bool { return o != nil })
					_, _, err := e.ProbCtx(context.Background(), first, q, crsky.QueryOptions{QuadNodes: 25000})
					if err == nil || !strings.Contains(err.Error(), "quadNodes") {
						t.Errorf("%s: ProbCtx with quadNodes 25000: err = %v, want the quadNodes rejection", label, err)
					}
				}
			}
		})
	})

	t.Run("certain", func(t *testing.T) {
		kinds := []dataset.CertainKind{dataset.Independent, dataset.Correlated, dataset.AntiCorrelated, dataset.Clustered}
		forEachCaseSeed(t, 33_000, 12, func(t *testing.T, seed int64) {
			rng := rand.New(rand.NewSource(seed))
			cfg := dataset.CertainConfig{N: 40 + rng.Intn(200), Dims: 2 + rng.Intn(3), Kind: kinds[rng.Intn(len(kinds))], Seed: rng.Int63()}
			ds, err := dataset.GenerateCertain(cfg)
			if err != nil {
				t.Fatal(err)
			}
			base, err := crsky.NewCertainEngine(ds.Points)
			if err != nil {
				t.Fatal(err)
			}
			q := make(geom.Point, cfg.Dims)
			for j := range q {
				q[j] = 10000 * (0.1 + 0.8*rng.Float64())
			}
			for _, ne := range derivedEngines(t, rng, base, incrementalCertainEngine(t, ds.Points)) {
				name, e := ne.name, ne.e.(*crsky.CertainEngine)
				answer := bruteReverseSkyline(e, q)
				label := fmt.Sprintf("seed=%d n=%d dims=%d kind=%v %s", seed, cfg.N, cfg.Dims, cfg.Kind, name)
				checkProbes(t, label, e, func(id int) bool { return !e.Deleted(id) }, q, crsky.QueryOptions{},
					[]float64{1}, func(float64) []int { return answer },
					func(id int) float64 {
						if slices.Contains(answer, id) {
							return 1
						}
						return 0
					})
			}
		})
	})
}
