package prsq

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/rtree"
	"github.com/crsky/crsky/internal/uncertain"
)

var testAlphas = []float64{0.1, 0.3, 0.6, 0.9, 1.0}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// queryStats is the one-point sample query under a background context.
func queryStats(t *testing.T, ds *dataset.Uncertain, q geom.Point, alpha float64, opt Options) ([]int, Stats) {
	t.Helper()
	out, st, err := QueryBatchStreamStatsCtx(context.Background(), ds, []geom.Point{q}, alpha, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out[0], st
}

// queryPDFStats is the one-point pdf query under a background context.
func queryPDFStats(t *testing.T, set *causality.PDFSet, q geom.Point, alpha float64, quadNodes int, opt Options) ([]int, Stats) {
	t.Helper()
	out, st, err := QueryBatchPDFStreamStatsCtx(context.Background(), set, []geom.Point{q}, alpha, quadNodes, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out[0], st
}

// pdfPRSQ is the brute-force pdf oracle: quadrature of Pr(u) against the
// whole dataset for every object, thresholded at alpha.
func pdfPRSQ(set *causality.PDFSet, q geom.Point, alpha float64, quadNodes int) []int {
	var want []int
	for id, o := range set.Objects {
		if o != nil && prob.GEq(prob.PrReverseSkylinePDF(o, q, set.Objects, quadNodes), alpha) {
			want = append(want, id)
		}
	}
	return want
}

// checkSampleEquivalence asserts that every accelerated configuration
// reproduces the brute-force prob.PRSQ answer set exactly.
func checkSampleEquivalence(t *testing.T, ds *dataset.Uncertain, q geom.Point) {
	t.Helper()
	for _, alpha := range testAlphas {
		want := prob.PRSQ(ds.Objects, q, alpha)
		for _, opt := range []Options{
			{},
			{NoBounds: true},
			{NoTier2: true},
		} {
			got, st := queryStats(t, ds, q, alpha, opt)
			if !equalIDs(got, want) {
				t.Fatalf("alpha=%g opts=%+v: got %d answers %v, want %d answers %v",
					alpha, opt, len(got), got, len(want), want)
			}
			decided := st.EmptyCandidates + st.AcceptedByBound + st.RejectedByBound +
				st.AcceptedByTier2 + st.RejectedByTier2 + st.Evaluated
			if decided != ds.Len() {
				t.Fatalf("alpha=%g: stats decide %d of %d objects (%+v)", alpha, decided, ds.Len(), st)
			}
			if opt.NoTier2 && (st.AcceptedByTier2 != 0 || st.RejectedByTier2 != 0) {
				t.Fatalf("alpha=%g: tier-2 decisions recorded with NoTier2 (%+v)", alpha, st)
			}
		}
	}
}

func TestQueryEquivalenceSampleModel(t *testing.T) {
	// Large radii relative to the domain force overlapping dominance
	// neighbourhoods, i.e. non-trivial candidate sets and a populated
	// undecided band.
	for _, cfg := range []dataset.UncertainConfig{
		dataset.LUrU(300, 2, 0, 400, 1),
		dataset.LUrU(300, 3, 0, 800, 2),
		dataset.LSrU(300, 2, 0, 400, 3),
		dataset.LUrG(200, 2, 100, 1200, 4),
	} {
		cfg := cfg
		t.Run(fmt.Sprintf("n=%d/d=%d/seed=%d", cfg.N, cfg.Dims, cfg.Seed), func(t *testing.T) {
			ds, err := dataset.GenerateUncertain(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(cfg.Seed))
			for i := 0; i < 3; i++ {
				q := make(geom.Point, cfg.Dims)
				for j := range q {
					q[j] = 10000 * (0.2 + 0.6*rng.Float64())
				}
				checkSampleEquivalence(t, ds, q)
			}
		})
	}
}

func TestQueryEquivalenceCertainDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	objs := make([]*uncertain.Object, 400)
	for i := range objs {
		p := geom.Point{rng.Float64() * 100, rng.Float64() * 100}
		objs[i] = uncertain.Certain(i, p)
	}
	ds, err := dataset.NewUncertain(objs)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []geom.Point{{50, 50}, {20, 80}, {95, 5}} {
		checkSampleEquivalence(t, ds, q)
	}
}

// TestQueryEquivalenceOffUnitWeights pins the empty-candidate fast path
// against objects whose sample probabilities sum to slightly less than one
// (the validation tolerance allows up to 1e-6 of drift, which snap does not
// collapse): at α = 1 such an object is NOT an answer even with no
// competitors, and the accelerated path must agree with brute force.
func TestQueryEquivalenceOffUnitWeights(t *testing.T) {
	objs := []*uncertain.Object{
		uncertain.New(0, []uncertain.Sample{
			{Loc: geom.Point{100, 100}, P: 0.5},
			{Loc: geom.Point{101, 101}, P: 0.4999995},
		}),
		uncertain.New(1, []uncertain.Sample{{Loc: geom.Point{-100, -100}, P: 1}}),
	}
	ds, err := dataset.NewUncertain(objs)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []geom.Point{{200, 200}, {0, 0}, {-300, 150}} {
		checkSampleEquivalence(t, ds, q)
	}
	// Below object 0's missing mass (5e-7), object 1 answers at q=(200, 200)
	// although object 0 lies strictly inside its MBR core: a candidate that
	// may not exist must never settle an object by the core test.
	q := geom.Point{200, 200}
	want := prob.PRSQ(ds.Objects, q, 1e-7)
	if got, _ := queryStats(t, ds, q, 1e-7, Options{}); !equalIDs(got, want) || len(want) != 2 {
		t.Fatalf("alpha=1e-7: got %v, brute force %v (want both objects)", got, want)
	}
}

func TestQueryEquivalencePDFModel(t *testing.T) {
	for _, kind := range []uncertain.PDFKind{uncertain.Uniform, uncertain.Gaussian} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			objs, err := dataset.GenerateUncertainPDF(dataset.LUrU(120, 2, 50, 600, 5), kind)
			if err != nil {
				t.Fatal(err)
			}
			set, err := causality.NewPDFSet(objs)
			if err != nil {
				t.Fatal(err)
			}
			q := geom.Point{5000, 5000}
			for _, quadNodes := range []int{0, 4} {
				for _, alpha := range []float64{0.2, 0.6, 1.0} {
					want := pdfPRSQ(set, q, alpha, quadNodes)
					for _, noTier2 := range []bool{false, true} {
						got, st := queryPDFStats(t, set, q, alpha, quadNodes, Options{NoTier2: noTier2})
						if !equalIDs(got, want) {
							t.Fatalf("kind=%v quad=%d alpha=%g noTier2=%v: got %v, want %v",
								kind, quadNodes, alpha, noTier2, got, want)
						}
						// pdf empty-candidate objects are evaluated too,
						// so Evaluated alone complements the rejects.
						if st.RejectedByBound+st.RejectedByTier2+st.Evaluated != set.Len() {
							t.Fatalf("stats decide %d of %d (%+v)",
								st.RejectedByBound+st.RejectedByTier2+st.Evaluated, set.Len(), st)
						}
					}
				}
			}
		})
	}
}

// TestAlphaAtEpsAcceptsEveryLiveObject: at α ≤ prob.Eps every live object
// is an answer (Pr ≥ 0 ≥ α − Eps), so both models settle each one at tier 1
// with no candidate pair and no exact evaluation, tombstones excluded, and
// agree with the naive oracles. NoBounds still evaluates every object.
func TestAlphaAtEpsAcceptsEveryLiveObject(t *testing.T) {
	const alpha = 1e-9
	ctx := context.Background()
	qs := []geom.Point{{5000, 5000}, {1200, 8800}}
	ds, err := dataset.GenerateUncertain(dataset.LUrU(400, 2, 0, 300, 3))
	if err != nil {
		t.Fatal(err)
	}
	objs, err := dataset.GenerateUncertainPDF(dataset.LUrU(150, 2, 50, 600, 5), uncertain.Uniform)
	if err != nil {
		t.Fatal(err)
	}
	set, err := causality.NewPDFSet(objs)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 17, 149} {
		if ds, err = ds.WithDelete(id); err != nil {
			t.Fatal(err)
		}
		if set, err = set.WithDelete(id); err != nil {
			t.Fatal(err)
		}
	}
	live := ds.Len() - 3
	for _, noBounds := range []bool{false, true} {
		opt := Options{NoBounds: noBounds}
		label := fmt.Sprintf("noBounds=%v", noBounds)
		got, st, err := QueryBatchStreamStatsCtx(ctx, ds, qs, alpha, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, q := range qs {
			if want := prob.PRSQ(ds.Objects, q, alpha); !equalIDs(got[k], want) || len(want) != live {
				t.Fatalf("sample %s q=%v: got %d answers, oracle %d of %d live", label, q, len(got[k]), len(want), live)
			}
		}
		if !noBounds && (st.AcceptedByBound != live*len(qs) || st.CandidatePairs != 0 || st.Evaluated != 0) {
			t.Fatalf("sample %s: %+v, want all %d accepted by bound with no pairs or evaluations", label, st, live*len(qs))
		}
		pgot, pst, err := QueryBatchPDFStreamStatsCtx(ctx, set, qs, alpha, 0, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, q := range qs {
			if want := pdfPRSQ(set, q, alpha, 0); !equalIDs(pgot[k], want) || len(want) != set.Len()-3 {
				t.Fatalf("pdf %s q=%v: got %d answers, oracle %d of %d live", label, q, len(pgot[k]), len(want), set.Len()-3)
			}
		}
		if !noBounds && (pst.AcceptedByBound != (set.Len()-3)*len(qs) || pst.CandidatePairs != 0 || pst.Evaluated != 0) {
			t.Fatalf("pdf %s: %+v, want all %d accepted by bound with no pairs or evaluations", label, pst, (set.Len()-3)*len(qs))
		}
	}
}

// TestTier2ShrinksUndecidedBand asserts the second tier is not dead weight:
// across overlapping workloads and high thresholds it must decide at least
// one object the all-or-nothing tier left undecided, and never decide more
// expensively (the evaluated band plus the stream length may only shrink).
func TestTier2ShrinksUndecidedBand(t *testing.T) {
	ds, err := dataset.GenerateUncertain(dataset.LUrU(400, 2, 50, 900, 17))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	var gained, evalT1, evalT2 int
	var pairsT1, pairsT2 int
	for i := 0; i < 4; i++ {
		q := geom.Point{10000 * (0.3 + 0.4*rng.Float64()), 10000 * (0.3 + 0.4*rng.Float64())}
		for _, alpha := range []float64{0.7, 0.9, 1.0} {
			idsT1, st1 := queryStats(t, ds, q, alpha, Options{NoTier2: true})
			idsT2, st2 := queryStats(t, ds, q, alpha, Options{})
			if !equalIDs(idsT1, idsT2) {
				t.Fatalf("alpha=%g: tier-2 changed the answers: %v vs %v", alpha, idsT2, idsT1)
			}
			gained += st2.AcceptedByTier2 + st2.RejectedByTier2
			evalT1 += st1.Evaluated
			evalT2 += st2.Evaluated
			pairsT1 += st1.CandidatePairs
			pairsT2 += st2.CandidatePairs
		}
	}
	if gained == 0 {
		t.Fatal("second tier decided no object on a workload built to exercise it")
	}
	if evalT2 >= evalT1 {
		t.Fatalf("second tier did not shrink the undecided band: %d vs %d evaluations", evalT2, evalT1)
	}
	if pairsT2 > pairsT1 {
		t.Fatalf("second tier lengthened the candidate streams: %d vs %d pairs", pairsT2, pairsT1)
	}
	t.Logf("tier-2: %d extra bound decisions, evaluations %d→%d, pairs %d→%d",
		gained, evalT1, evalT2, pairsT1, pairsT2)
}

// TestTier2ShrinksUndecidedBandPDF is the pdf-model twin: the product of
// (1 − core-rectangle mass) over the streamed candidates must reject
// objects the all-or-nothing core test leaves to quadrature, for uniform
// and Gaussian densities alike, without changing an answer or lengthening
// a stream.
func TestTier2ShrinksUndecidedBandPDF(t *testing.T) {
	for _, kind := range []uncertain.PDFKind{uncertain.Uniform, uncertain.Gaussian} {
		t.Run(kind.String(), func(t *testing.T) {
			objs, err := dataset.GenerateUncertainPDF(dataset.LUrU(300, 2, 50, 900, 17), kind)
			if err != nil {
				t.Fatal(err)
			}
			set, err := causality.NewPDFSet(objs)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(17))
			var rejected, evalT1, evalT2, pairsT1, pairsT2 int
			for i := 0; i < 4; i++ {
				q := geom.Point{10000 * (0.3 + 0.4*rng.Float64()), 10000 * (0.3 + 0.4*rng.Float64())}
				for _, alpha := range []float64{0.5, 0.9} {
					idsT1, st1 := queryPDFStats(t, set, q, alpha, 0, Options{NoTier2: true})
					idsT2, st2 := queryPDFStats(t, set, q, alpha, 0, Options{})
					if !equalIDs(idsT1, idsT2) {
						t.Fatalf("q=%v alpha=%g: tier-2 changed the answers: %v vs %v", q, alpha, idsT2, idsT1)
					}
					rejected += st2.RejectedByTier2
					evalT1 += st1.Evaluated
					evalT2 += st2.Evaluated
					pairsT1 += st1.CandidatePairs
					pairsT2 += st2.CandidatePairs
				}
			}
			if rejected == 0 {
				t.Fatal("second tier rejected no object on a workload built to exercise it")
			}
			if evalT2 >= evalT1 {
				t.Fatalf("second tier did not shrink the quadrature band: %d vs %d evaluations", evalT2, evalT1)
			}
			if pairsT2 > pairsT1 {
				t.Fatalf("second tier lengthened the candidate streams: %d vs %d pairs", pairsT2, pairsT1)
			}
			t.Logf("tier-2: %d rejections, evaluations %d→%d, pairs %d→%d",
				rejected, evalT1, evalT2, pairsT1, pairsT2)
		})
	}
}

// TestSummariesPartitionObjects pins the sub-MBR summaries the second tier
// trusts: group weights must sum to the object's raw mass, every sample must
// lie inside its group rectangle, and every group rectangle inside the MBR.
func TestSummariesPartitionObjects(t *testing.T) {
	ds, err := dataset.GenerateUncertain(dataset.LUrG(250, 4, 0, 600, 19))
	if err != nil {
		t.Fatal(err)
	}
	sums := ds.Summaries()
	for id, o := range ds.Objects {
		sm := sums[id]
		if len(sm.Rects) == 0 || len(sm.Rects) != len(sm.Weights) {
			t.Fatalf("object %d: malformed summary (%d rects, %d weights)",
				id, len(sm.Rects), len(sm.Weights))
		}
		var raw, grouped float64
		for _, s := range o.Samples {
			raw += s.P
			inAny := false
			for _, r := range sm.Rects {
				if r.ContainsPoint(s.Loc) {
					inAny = true
					break
				}
			}
			if !inAny {
				t.Fatalf("object %d: sample %v outside every summary rect", id, s.Loc)
			}
		}
		mbr := o.MBR()
		for k, r := range sm.Rects {
			if !mbr.ContainsRect(r) {
				t.Fatalf("object %d: summary rect %d escapes the MBR", id, k)
			}
			grouped += sm.Weights[k]
		}
		if math.Abs(raw-grouped) > 1e-12 {
			t.Fatalf("object %d: summary weights sum to %v, raw mass %v", id, grouped, raw)
		}
	}
}

// streamCandidates collects every object's full (untruncated) candidate
// stream — the MBR-level superset the query pipeline consumes — from the
// batch join run on the one query point.
func streamCandidates(t *testing.T, ds *dataset.Uncertain, q geom.Point) [][]int {
	cands := make([][]int, ds.Len())
	_, err := ds.Tree().JoinSelfStreamBatch(context.Background(), []rtree.WindowFunc{domWindow(q)}, rtree.BatchStreamVisitor{
		Pair: func(_, uID, cID int, _ geom.Rect) bool {
			cands[uID] = append(cands[uID], cID)
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cands
}

// TestStreamCandidatesCoverFilter pins the batch join to the per-object
// Lemma-2 filter it replaces: the MBR-level stream must contain every exact
// candidate (objects beyond it carry exact ×1 factors, so a superset keeps
// the evaluation bit-identical while the filter stays pure rectangle work).
func TestStreamCandidatesCoverFilter(t *testing.T) {
	ds, err := dataset.GenerateUncertain(dataset.LUrU(500, 2, 0, 500, 11))
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Point{4000, 6000}
	batch := streamCandidates(t, ds, q)
	for id := 0; id < ds.Len(); id++ {
		got := make(map[int]bool, len(batch[id]))
		for _, c := range batch[id] {
			if c == id {
				t.Fatalf("object %d lists itself as candidate", id)
			}
			got[c] = true
		}
		for _, want := range causality.FilterCandidates(ds, q, ds.Objects[id]) {
			if !got[want] {
				t.Fatalf("object %d: exact candidate %d missing from batch stream", id, want)
			}
		}
	}
}

// TestQueryNodeAccessesBelowNaive asserts the headline I/O claim: one
// self-join pass costs strictly fewer node accesses than n independent
// filter traversals.
func TestQueryNodeAccessesBelowNaive(t *testing.T) {
	ds, err := dataset.GenerateUncertain(dataset.LUrU(2000, 2, 0, 300, 13))
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Point{5000, 5000}

	var naive int64
	for id := 0; id < ds.Len(); id++ {
		_, n := causality.FilterCandidatesCounted(ds, q, ds.Objects[id])
		naive += n
	}

	_, st := queryStats(t, ds, q, 0.5, Options{})
	batch := st.NodeAccesses

	if batch >= naive {
		t.Fatalf("accelerated query accesses %d, naive filter alone %d — must be strictly cheaper", batch, naive)
	}
	t.Logf("node accesses: naive=%d batch=%d (%.1fx fewer)", naive, batch, float64(naive)/float64(batch))
}
