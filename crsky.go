// Package crsky explains why objects are missing from (probabilistic)
// reverse skyline query results. It is a from-scratch Go implementation of
//
//	Gao, Liu, Chen, Zhou, Zheng: "Finding Causality and Responsibility for
//	Probabilistic Reverse Skyline Query Non-Answers", IEEE TKDE 28(11), 2016.
//
// Given a dataset P, a query object q, and an object an that is NOT in the
// (probabilistic) reverse skyline of q, the library computes every actual
// cause of that absence together with its responsibility: an object p is an
// actual cause when some contingency set Γ ⊆ P exists such that an stays a
// non-answer on P−Γ but becomes an answer on P−Γ−{p}; its responsibility is
// 1/(1+|Γ|) for a minimum such Γ.
//
// Three engines cover the paper's three data models:
//
//   - Engine — uncertain data under the discrete sample model (algorithm
//     CP, Section 3);
//   - PDFEngine — uncertain data under the continuous pdf model
//     (Section 3.2);
//   - CertainEngine — certain data under plain reverse skyline semantics
//     (algorithm CR, Section 4).
//
// All engines index their data with an R*-tree (4096-byte pages by default)
// and report simulated I/O through NodeAccesses, matching the paper's
// evaluation metrics.
package crsky

import (
	"sync"

	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/prsq"
	"github.com/crsky/crsky/internal/skyline"
	"github.com/crsky/crsky/internal/stats"
	"github.com/crsky/crsky/internal/uncertain"
)

// Core vocabulary, re-exported so that applications need only this package.
type (
	// Point is a D-dimensional point.
	Point = geom.Point
	// Rect is an axis-aligned hyper-rectangle.
	Rect = geom.Rect
	// Sample is one possible position of an uncertain object with its
	// appearance probability.
	Sample = uncertain.Sample
	// Object is a discrete-sample uncertain object.
	Object = uncertain.Object
	// PDFObject is a continuous-model uncertain object (uniform or
	// truncated-Gaussian density over a rectangular region).
	PDFObject = uncertain.PDFObject
	// Cause is one actual cause with its responsibility and a minimum
	// contingency set.
	Cause = causality.Cause
	// Explanation is the full causality-and-responsibility result for one
	// non-answer.
	Explanation = causality.Result
	// Options tunes the refinement stage of the explanation algorithms.
	Options = causality.Options
	// QueryOptions tunes the index-accelerated probabilistic reverse
	// skyline query path (parallelism, bound pruning).
	QueryOptions = prsq.Options
	// QueryStats reports how an accelerated query was answered: how many
	// objects the bounds decided and how many needed exact evaluation.
	QueryStats = prsq.Stats
	// ApproxOptions tunes the Monte Carlo approximate query tier (error
	// budget, confidence, seed, iteration cap).
	ApproxOptions = prsq.ApproxOptions
	// ApproxResult is an approximate query answer: membership under the
	// estimates plus per-object confidence intervals for the estimated
	// band.
	ApproxResult = prsq.ApproxResult
	// ApproxInterval is one Monte Carlo estimate with its confidence
	// interval.
	ApproxInterval = prsq.ApproxInterval
)

// Errors re-exported from the causality engine.
var (
	ErrNotNonAnswer      = causality.ErrNotNonAnswer
	ErrTooManyCandidates = causality.ErrTooManyCandidates
	ErrSubsetBudget      = causality.ErrSubsetBudget
	ErrBadObject         = causality.ErrBadObject
)

// NewUniformObject builds an uncertain object whose samples are equally
// probable — the convention of the paper's running examples.
func NewUniformObject(id int, locations []Point) *Object {
	return uncertain.NewUniform(id, locations)
}

// NewCertainObject builds the degenerate single-sample object.
func NewCertainObject(id int, loc Point) *Object {
	return uncertain.Certain(id, loc)
}

// NewUniformPDFObject builds a uniform-density continuous object.
func NewUniformPDFObject(id int, region Rect) *PDFObject {
	return uncertain.NewUniformPDF(id, region)
}

// NewGaussianPDFObject builds a truncated-Gaussian continuous object; nil
// mean/sigma select the defaults (region center, quarter side).
func NewGaussianPDFObject(id int, region Rect, mean, sigma Point) *PDFObject {
	return uncertain.NewGaussianPDF(id, region, mean, sigma)
}

// Engine answers and explains probabilistic reverse skyline queries over a
// discrete-sample uncertain dataset. Objects must be numbered 0..n-1.
type Engine struct {
	ds *dataset.Uncertain
	io stats.Counter
}

// NewEngine validates the objects and builds the engine. The R-tree index
// is built lazily on first query.
func NewEngine(objects []*Object) (*Engine, error) {
	ds, err := dataset.NewUncertain(objects)
	if err != nil {
		return nil, err
	}
	e := &Engine{ds: ds}
	ds.Tree().SetCounter(&e.io)
	return e, nil
}

// Len returns the number of objects.
func (e *Engine) Len() int { return e.ds.Len() }

// Dims returns the dataset dimensionality.
func (e *Engine) Dims() int { return e.ds.Dims() }

// Object returns the object with the given ID.
func (e *Engine) Object(id int) *Object { return e.ds.Objects[id] }

// NodeAccesses returns the simulated I/O performed since the last Reset.
func (e *Engine) NodeAccesses() int64 { return e.io.Value() }

// ResetCounters zeroes the I/O counter.
func (e *Engine) ResetCounters() { e.io.Reset() }

// Prob returns Pr(u) — the probability that object id is a reverse skyline
// point of q (Eq. 2) — using the candidate filter to avoid touching
// irrelevant objects.
func (e *Engine) Prob(id int, q Point) float64 {
	an := e.ds.Objects[id]
	if an == nil { // tombstone: a deleted object is never an answer
		return 0
	}
	candIDs := causality.FilterCandidates(e.ds, q, an)
	cands := make([]*Object, len(candIDs))
	for i, cid := range candIDs {
		cands[i] = e.ds.Objects[cid]
	}
	return prob.PrReverseSkyline(an, q, cands)
}

// IsAnswer reports whether object id belongs to the probabilistic reverse
// skyline of q at threshold alpha.
func (e *Engine) IsAnswer(id int, q Point, alpha float64) bool {
	return e.Prob(id, q) >= alpha-prob.Eps
}

// ProbabilisticReverseSkylineNaive answers the query with the naive
// per-object loop — one candidate-filter traversal and one full Eq.-2
// evaluation per object. Kept as the correctness baseline and benchmark
// reference for the index-accelerated QueryCtx.
func (e *Engine) ProbabilisticReverseSkylineNaive(q Point, alpha float64) []int {
	var out []int
	for id, o := range e.ds.Objects {
		if o == nil {
			continue
		}
		if e.IsAnswer(id, q, alpha) {
			out = append(out, id)
		}
	}
	return out
}

// Explain computes the causality and responsibility for non-answer id using
// algorithm CP. It fails with ErrNotNonAnswer when id is an answer.
func (e *Engine) Explain(id int, q Point, alpha float64, opts Options) (*Explanation, error) {
	return causality.CP(e.ds, q, id, alpha, opts)
}

// ExplainNaive runs the Naive-I baseline (same filter, exhaustive
// refinement); used by the benchmark harness.
func (e *Engine) ExplainNaive(id int, q Point, alpha float64, opts Options) (*Explanation, error) {
	return causality.NaiveI(e.ds, q, id, alpha, opts)
}

// Verify independently re-checks an explanation against Definition 1:
// every reported cause's contingency set must witness causehood and the
// responsibility arithmetic must hold. A trust layer over Explain.
func (e *Engine) Verify(q Point, alpha float64, res *Explanation) error {
	return causality.VerifyExplanation(e.ds, q, alpha, res)
}

// Repair is a minimal intervention turning a non-answer into an answer.
type Repair = causality.Repair

// SuggestRepair finds a smallest set of objects whose removal makes the
// non-answer id an answer at threshold alpha — the actionable follow-up to
// an explanation ("what is the smallest set of competitors to beat?").
// Large refinement pools fall back to a greedy construction (Exact=false).
func (e *Engine) SuggestRepair(id int, q Point, alpha float64, opts Options) (*Repair, error) {
	return causality.MinimalRepair(e.ds, q, id, alpha, opts)
}

// CertainEngine answers and explains (certain) reverse skyline queries.
type CertainEngine struct {
	ix *skyline.Index
	io stats.Counter

	// redMu guards red, the lazily built (and warmed) Section-4 reduction
	// dataset backing Verify/SuggestRepair and their v2 counterparts.
	// Insert and Delete invalidate it: the reduction must stay
	// index-aligned with the live points.
	redMu sync.Mutex
	red   *dataset.Uncertain
}

// NewCertainEngine validates the points and builds the engine with a
// bulk-loaded R-tree.
func NewCertainEngine(points []Point) (*CertainEngine, error) {
	ds, err := dataset.NewCertain(points)
	if err != nil {
		return nil, err
	}
	e := &CertainEngine{ix: skyline.NewIndex(ds.Points)}
	e.ix.SetCounter(&e.io)
	return e, nil
}

// Len returns the number of points.
func (e *CertainEngine) Len() int { return e.ix.Len() }

// Dims returns the dataset dimensionality.
func (e *CertainEngine) Dims() int { return e.ix.Dims() }

// Point returns the point at the given index.
func (e *CertainEngine) Point(i int) Point { return e.ix.Points()[i] }

// NodeAccesses returns the simulated I/O performed since the last Reset.
func (e *CertainEngine) NodeAccesses() int64 { return e.io.Value() }

// ResetCounters zeroes the I/O counter.
func (e *CertainEngine) ResetCounters() { e.io.Reset() }

// IsReverseSkylinePoint reports whether point i belongs to the reverse
// skyline of q (Definition 3).
func (e *CertainEngine) IsReverseSkylinePoint(i int, q Point) bool {
	return e.ix.Member(i, q)
}

// ReverseSkyline returns the indices of all reverse skyline points of q.
func (e *CertainEngine) ReverseSkyline(q Point) []int {
	return e.ix.ReverseSkyline(q)
}

// Explain computes the causality and responsibility for non-answer i using
// algorithm CR (single window query, Lemma 7 — no verification).
func (e *CertainEngine) Explain(i int, q Point) (*Explanation, error) {
	return causality.CR(e.ix, q, i)
}

// ExplainNaive runs the Naive-II baseline (same filter, exhaustive
// verification); used by the benchmark harness.
func (e *CertainEngine) ExplainNaive(i int, q Point, opts Options) (*Explanation, error) {
	return causality.NaiveII(e.ix, q, i, opts)
}

// Insert adds a point to the engine and returns its index. Existing
// indexes remain valid. The reduction cache is invalidated AFTER the
// mutation: invalidating first would let a concurrent Verify/SuggestRepair
// rebuild and cache the pre-mutation reduction, which would then stay
// stale past this call.
func (e *CertainEngine) Insert(p Point) int {
	idx := e.ix.Insert(p)
	e.invalidateReduction()
	return idx
}

// Delete removes the point with the given index; the index becomes a
// tombstone and is never reused. See Insert for the invalidation order.
func (e *CertainEngine) Delete(i int) error {
	err := e.ix.Delete(i)
	e.invalidateReduction()
	return err
}

// Deleted reports whether index i is a tombstone.
func (e *CertainEngine) Deleted(i int) bool { return e.ix.Deleted(i) }

// PDFEngine answers and explains probabilistic reverse skyline queries over
// continuous-model uncertain data (Section 3.2).
type PDFEngine struct {
	set *causality.PDFSet
	io  stats.Counter
}

// NewPDFEngine validates the objects and builds the engine.
func NewPDFEngine(objects []*PDFObject) (*PDFEngine, error) {
	set, err := causality.NewPDFSet(objects)
	if err != nil {
		return nil, err
	}
	e := &PDFEngine{set: set}
	set.Tree().SetCounter(&e.io)
	return e, nil
}

// Len returns the number of objects.
func (e *PDFEngine) Len() int { return e.set.Len() }

// Dims returns the dataset dimensionality.
func (e *PDFEngine) Dims() int { return e.set.Dims() }

// Object returns the pdf object with the given ID.
func (e *PDFEngine) Object(id int) *PDFObject { return e.set.Objects[id] }

// NodeAccesses returns the simulated I/O performed since the last Reset.
func (e *PDFEngine) NodeAccesses() int64 { return e.io.Value() }

// ResetCounters zeroes the I/O counter.
func (e *PDFEngine) ResetCounters() { e.io.Reset() }

// Prob returns Pr(u) for object id by quadrature over its region;
// nodesPerDim <= 0 selects the dimension-adapted default. The full object
// slice is passed straight through (the evaluation skips id by pointer),
// so no per-call candidate slice is rebuilt.
func (e *PDFEngine) Prob(id int, q Point, nodesPerDim int) float64 {
	an := e.set.Objects[id]
	if an == nil { // tombstone: a deleted object is never an answer
		return 0
	}
	return prob.PrReverseSkylinePDF(an, q, e.set.Objects, nodesPerDim)
}

// ProbabilisticReverseSkylineNaive answers the pdf-model query by
// thresholding Prob over every object — no index, no bounds, one full
// quadrature per object. Kept as the correctness oracle the accelerated
// QueryCtx is conformance-tested against.
func (e *PDFEngine) ProbabilisticReverseSkylineNaive(q Point, alpha float64, nodesPerDim int) []int {
	var out []int
	for id, o := range e.set.Objects {
		if o == nil {
			continue
		}
		if prob.GEq(e.Prob(id, q, nodesPerDim), alpha) {
			out = append(out, id)
		}
	}
	return out
}

// Explain computes the causality and responsibility for non-answer id with
// the pdf-model variant of CP.
func (e *PDFEngine) Explain(id int, q Point, alpha float64, opts Options) (*Explanation, error) {
	return causality.CPPDF(e.set, q, id, alpha, opts)
}
