package prsq

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/obs"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/rtree"
	"github.com/crsky/crsky/internal/uncertain"
)

// ApproxOptions tunes the Monte Carlo approximate tier: the degraded path a
// server falls back to when the exact pool is saturated or the deadline is
// too tight for Eq.-2 evaluation. The zero value selects ε = 0.05 at 95%
// confidence with a fixed seed of 0.
type ApproxOptions struct {
	// Epsilon is the target half-width of each per-object confidence
	// interval (<= 0 selects 0.05). The Hoeffding iteration count derived
	// from it may be clamped by MaxIters, in which case the reported
	// intervals widen honestly instead of over-claiming.
	Epsilon float64
	// Confidence is the per-object coverage target in (0, 1) (out-of-range
	// selects 0.95). Hoeffding intervals are distribution-free, so the
	// realized coverage is at least this value.
	Confidence float64
	// Seed drives every per-object generator deterministically: the same
	// (dataset, query, options, seed) produces bit-identical estimates
	// regardless of worker count or scheduling.
	Seed int64
	// MaxIters caps the per-object iteration count (<= 0 selects 50_000),
	// bounding the degraded path's worst-case latency.
	MaxIters int
}

// withDefaults resolves the zero-value conventions.
func (a ApproxOptions) withDefaults() ApproxOptions {
	if a.Epsilon <= 0 {
		a.Epsilon = 0.05
	}
	if a.Confidence <= 0 || a.Confidence >= 1 {
		a.Confidence = 0.95
	}
	if a.MaxIters <= 0 {
		a.MaxIters = 50_000
	}
	return a
}

// Iters is the Hoeffding iteration count for the requested budget:
// ceil(ln(2/δ) / (2ε²)) with δ = 1 − Confidence, clamped to [16, MaxIters].
func (a ApproxOptions) Iters() int {
	a = a.withDefaults()
	delta := 1 - a.Confidence
	iters := int(math.Ceil(math.Log(2/delta) / (2 * a.Epsilon * a.Epsilon)))
	if iters < 16 {
		iters = 16
	}
	if iters > a.MaxIters {
		iters = a.MaxIters
	}
	return iters
}

// HalfWidth is the Hoeffding confidence-interval half-width actually
// achieved by iters iterations at the configured confidence:
// sqrt(ln(2/δ) / (2·iters)). When Iters() was clamped by MaxIters this
// exceeds Epsilon — the honest width, which is what gets reported.
func (a ApproxOptions) HalfWidth(iters int) float64 {
	a = a.withDefaults()
	if iters <= 0 {
		return 1
	}
	return math.Sqrt(math.Log(2/(1-a.Confidence)) / (2 * float64(iters)))
}

// ApproxInterval is one Monte Carlo estimate with its Hoeffding confidence
// interval, clamped to [0, 1]. Only objects the bounds could not decide
// carry an interval — everything else was settled exactly by the filter
// stage.
type ApproxInterval struct {
	ID int     `json:"id"`
	Pr float64 `json:"pr"`
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// ApproxResult is the approximate tier's answer: the answer set under the
// Monte Carlo membership estimates, plus per-object intervals for the
// estimated band. Bound-decided objects (the overwhelming majority on real
// workloads) have exact membership; only interval-carrying objects can
// disagree with the exact tier, and then only when the true probability
// lies within the interval width of alpha.
type ApproxResult struct {
	// Answers is the ascending answer ID list (never nil).
	Answers []int `json:"answers"`
	// Intervals covers exactly the Monte Carlo–estimated objects, ascending
	// by ID (never nil).
	Intervals []ApproxInterval `json:"intervals"`
	// Iters is the per-object iteration count actually used.
	Iters int `json:"iters"`
	// Epsilon and Confidence echo the resolved request budget.
	Epsilon    float64 `json:"epsilon"`
	Confidence float64 `json:"confidence"`
	// Exact marks a result that is exact despite arriving through the
	// approximate API (no objects needed estimation, or the engine has an
	// exact fast path); Intervals is then empty.
	Exact bool `json:"exact"`
}

// objSeed derives the per-object generator seed from the request seed with
// a splitmix64 finalizer, so neighboring IDs get uncorrelated streams and
// the estimate for each object is independent of worker scheduling.
func objSeed(seed int64, id int) int64 {
	z := uint64(seed) + uint64(id+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// QueryApproxStatsCtx answers a sample-model query approximately: the join
// stage of QueryBatchStreamStatsCtx settles everything the bounds can decide
// (exactly), and the undecided band is estimated by Monte Carlo over each
// object's candidate set instead of the exact Eq.-2 evaluation —
// restriction to candidates is exact, since non-candidates never dominate
// the query w.r.t. any of the object's instances. Cost per undecided object
// is O(iters × candidates) instead of the sample-quadratic exact term,
// bounded by MaxIters regardless of sample counts.
func QueryApproxStatsCtx(ctx context.Context, ds *dataset.Uncertain, q geom.Point, alpha float64,
	opt Options, ap ApproxOptions) (*ApproxResult, Stats, error) {

	states := sampleStates(ds, []geom.Point{q}, alpha, opt)
	return approxBand(ctx, ds.Tree(), ds.Len(), q, alpha, opt, ap, states,
		func(id int, cands []int32, iters int, rng *rand.Rand) float64 {
			bufp := candPool.Get().(*[]*uncertain.Object)
			objs := (*bufp)[:0]
			for _, cid := range cands {
				objs = append(objs, ds.Objects[cid])
			}
			est := prob.PrReverseSkylineMC(ds.Objects[id], q, objs, iters, rng)
			*bufp = objs[:0]
			candPool.Put(bufp)
			return est
		})
}

// QueryApproxPDFStatsCtx is the continuous-model twin: the pdf join stage,
// then Monte Carlo over each undecided object's candidate set via
// per-density sampling — no quadrature grid, so the degraded path's cost is
// independent of the quadrature resolution entirely.
func QueryApproxPDFStatsCtx(ctx context.Context, set *causality.PDFSet, q geom.Point, alpha float64,
	opt Options, ap ApproxOptions) (*ApproxResult, Stats, error) {

	states := pdfStates(set, []geom.Point{q}, alpha, opt)
	return approxBand(ctx, set.Tree(), set.Len(), q, alpha, opt, ap, states,
		func(id int, cands []int32, iters int, rng *rand.Rand) float64 {
			bufp := pdfCandPool.Get().(*[]*uncertain.PDFObject)
			objs := (*bufp)[:0]
			for _, cid := range cands {
				objs = append(objs, set.Objects[cid])
			}
			est := prob.PrReverseSkylineMCPDF(set.Objects[id], q, objs, iters, rng)
			*bufp = objs[:0]
			pdfCandPool.Put(bufp)
			return est
		})
}

// approxBand runs the join stage on the one point q and settles its
// undecided band with estimate, traced as prsq.approx: each object gets
// its own seeded generator, and the result carries intervals sorted
// ascending by ID (the strided evaluation fills them in band order), with
// Exact set when nothing needed estimation.
func approxBand(ctx context.Context, tree *rtree.Tree, n int, q geom.Point, alpha float64,
	opt Options, ap ApproxOptions, newState func(k int) batchState,
	estimate func(id int, cands []int32, iters int, rng *rand.Rand) float64) (*ApproxResult, Stats, error) {

	ap = ap.withDefaults()
	iters := ap.Iters()
	j, err := join(ctx, tree, n, []geom.Point{q}, opt, newState)
	if err != nil {
		return nil, j.stats, err
	}
	intervals := make([]ApproxInterval, len(j.items))
	half := ap.HalfWidth(iters)
	tr := obs.FromContext(ctx)
	endMC := tr.StartSpan("prsq.approx")
	evaluated, err := evaluate(ctx, j.cands, opt,
		func(k int) bool {
			id := j.items[k].id
			est := estimate(id, j.cands[k], iters, rand.New(rand.NewSource(objSeed(ap.Seed, id))))
			intervals[k] = ApproxInterval{ID: id, Pr: est,
				Lo: math.Max(0, est-half), Hi: math.Min(1, est+half)}
			return prob.GEq(est, alpha)
		},
		func(k int, d decision) { j.verdicts[0][j.items[k].id] = d })
	endMC()
	if err != nil {
		return nil, j.stats, wrapCanceled(err, evaluated)
	}
	j.stats.Evaluated = len(j.items)
	j.stats.addToTrace(tr)
	sort.Slice(intervals, func(i, j int) bool { return intervals[i].ID < intervals[j].ID })
	return &ApproxResult{
		Answers:    collect(j.verdicts[0]),
		Intervals:  intervals,
		Iters:      iters,
		Epsilon:    ap.Epsilon,
		Confidence: ap.Confidence,
		Exact:      len(intervals) == 0,
	}, j.stats, nil
}

// ExactApproxResult wraps an exactly-computed answer set in the approximate
// result shape — the path engines with an exact cheap answer (the certain
// model's BBRS) take through the approximate API.
func ExactApproxResult(answers []int, ap ApproxOptions) *ApproxResult {
	ap = ap.withDefaults()
	if answers == nil {
		answers = []int{}
	}
	return &ApproxResult{
		Answers:    answers,
		Intervals:  []ApproxInterval{},
		Epsilon:    ap.Epsilon,
		Confidence: ap.Confidence,
		Exact:      true,
	}
}
