package crsky

import (
	"context"
	"errors"
	"fmt"

	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/ctxutil"
	"github.com/crsky/crsky/internal/obs"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/prsq"
	"github.com/crsky/crsky/internal/uncertain"
)

// This file is the v2 engine API: one model-generic, context-first surface
// implemented by all three engines. The paper defines a single
// causality/responsibility semantics (Definition 1, responsibility
// 1/(1+|Γ|)) instantiated over three data models; v2 makes the public API
// mirror that fact, so serving layers, CLIs, and conformance harnesses
// dispatch through one interface instead of re-implementing model switches.
//
// Contract, uniform across engines:
//
//   - Every *Ctx method observes ctx: searches poll it with an amortized
//     stride (ctxutil.DefaultStride work units) at the existing budget
//     charging points, so cancellation support never perturbs search
//     order, results, or node-access accounting of uncanceled runs.
//   - A canceled call returns an error wrapping *CanceledError (and
//     therefore matching errors.Is(err, context.Canceled) /
//     context.DeadlineExceeded) carrying partial work statistics; engine
//     state is fully restored, so the next call behaves as if the
//     canceled one never happened.
//   - alpha is always present. The probabilistic engines require
//     alpha ∈ (0, 1]; CertainEngine accepts the parameter and validates
//     it is exactly 1 (certain-data membership is exact), failing with
//     ErrBadAlpha otherwise.
//   - Each operation has one v2 method. A query is a batch of one:
//     QueryCtx runs the engine's QueryBatchStream path on its single point,
//     and a nil emit turns QueryBatchStream into a plain batch call.
//     Explanations have no batch method: two explanations share no work,
//     so a batch of them is a loop over ExplainCtx. One object's
//     membership is ProbCtx. The naive oracles the engines are tested
//     against are not engine methods: they live next to the code they
//     check (causality.NaivePRSQ, NaiveI and NaiveII, prob.PRSQPDF).

// CanceledError is the typed error wrapped into every cancellation return:
// it unwraps to the context error and carries the partial work counters
// (subsets examined on explanation paths, exact evaluations on query
// paths).
type CanceledError = ctxutil.CanceledError

// ErrBadAlpha reports a probability threshold outside the engine's domain:
// (0, 1] for the probabilistic engines, exactly 1 for CertainEngine.
var ErrBadAlpha = errors.New("crsky: alpha out of range for this engine")

// Querier is the model-generic query surface shared by all three engines.
type Querier interface {
	// Len returns the number of objects.
	Len() int
	// Dims returns the dataset dimensionality.
	Dims() int
	// Warm forces the lazy index and derived-cache builds so concurrent
	// readers never race on them.
	Warm()
	// QueryCtx returns the IDs (ascending) of every object whose
	// probability of being a reverse skyline point of q is at least
	// alpha, with execution statistics — QueryBatchStream on one point.
	// QueryStats.NodeAccesses is the call's simulated I/O, the paper's
	// primary cost metric; each call counts its own.
	QueryCtx(ctx context.Context, q Point, alpha float64, opts QueryOptions) ([]int, QueryStats, error)
	// QueryBatchStream answers many query points at once — one answer
	// slice per point, element-wise identical to per-point QueryCtx calls —
	// sharing index traversal and warm-up across the batch. The batch runs
	// on the caller's goroutine: callers that want throughput run batches
	// concurrently, which the engines allow after Warm. A non-nil emit
	// observes every query's final ascending answer slice in request
	// order, each exactly once, as soon as it is final — before the rest
	// of the batch finishes computing. Emit runs on the caller's
	// goroutine; the callback must not call back into the engine. On a
	// mid-batch cancellation only the completed prefix has been emitted,
	// and the call returns the error with no answers.
	QueryBatchStream(ctx context.Context, qs []Point, alpha float64, opts QueryOptions, emit func(index int, ids []int)) ([][]int, QueryStats, error)
	// ProbCtx returns Pr(id), the probability that object id is a reverse
	// skyline point of q, by probing that one object: its candidate filter
	// and one Eq.-2 evaluation (0 or 1 on certain data, one dominance
	// window). Object id is in QueryCtx's answer at alpha exactly when
	// pr >= alpha − 1e-9, the threshold QueryCtx applies. Only
	// opts.QuadNodes is read (the pdf quadrature resolution).
	// QueryStats.NodeAccesses is the probe's simulated I/O. An
	// out-of-range or deleted id fails with ErrBadObject. The probe itself
	// is not interruptible; ctx is observed on entry.
	ProbCtx(ctx context.Context, id int, q Point, opts QueryOptions) (float64, QueryStats, error)
}

// Explainer is the full v2 engine surface: queries, copy-on-write
// mutations, causality explanations, minimal repairs, and independent
// verification. All three engines implement all of it, so a caller holding
// an Explainer needs no type assertion to insert or delete objects.
type Explainer interface {
	Querier
	Mutable
	// ExplainCtx computes the causality and responsibility for non-answer
	// id (ErrNotNonAnswer if it is an answer). The search runs on the
	// caller's goroutine: callers that want throughput explain several
	// non-answers concurrently, which the engines allow after Warm.
	ExplainCtx(ctx context.Context, id int, q Point, alpha float64, opts Options) (*Explanation, error)
	// RepairCtx finds a smallest removal set making non-answer id an
	// answer.
	RepairCtx(ctx context.Context, id int, q Point, alpha float64, opts Options) (*Repair, error)
	// VerifyCtx independently re-checks an explanation against
	// Definition 1. The check itself is not interruptible; ctx is observed
	// on entry.
	VerifyCtx(ctx context.Context, q Point, alpha float64, res *Explanation) error
}

// Compile-time conformance of all three engines.
var (
	_ Explainer = (*Engine)(nil)
	_ Explainer = (*CertainEngine)(nil)
	_ Explainer = (*PDFEngine)(nil)
)

// checkAlphaUnit validates a probabilistic threshold.
func checkAlphaUnit(alpha float64) error {
	if !(alpha > 0 && alpha <= 1) {
		return fmt.Errorf("%w: alpha %v out of (0, 1]", ErrBadAlpha, alpha)
	}
	return nil
}

// checkAlphaOne validates the certain-data threshold: the parameter is
// accepted for signature uniformity but must be exactly 1.
func checkAlphaOne(alpha float64) error {
	if alpha != 1 {
		return fmt.Errorf("%w: certain-data membership is exact, alpha must be 1 (got %v)", ErrBadAlpha, alpha)
	}
	return nil
}

func checkDims(q Point, dims int) error {
	if q.Dims() != dims {
		return fmt.Errorf("crsky: query point has %d dims, dataset has %d", q.Dims(), dims)
	}
	if !q.IsFinite() {
		return fmt.Errorf("crsky: query point has non-finite coordinates")
	}
	return nil
}

// ctxPrecheck returns the wrapped cancellation error of an already-dead
// context (the shared ctxutil helper, re-exported for this file's
// engine methods).
func ctxPrecheck(ctx context.Context) error { return ctxutil.Precheck(ctx) }

// checkProbe validates a ProbCtx call: a live object id, a well-formed q
// and a live context.
func checkProbe(ctx context.Context, id int, live bool, q Point, dims int) error {
	if !live {
		return fmt.Errorf("%w: %d", ErrBadObject, id)
	}
	if err := checkDims(q, dims); err != nil {
		return err
	}
	return ctxPrecheck(ctx)
}

// queryOne unpacks a batch of one into QueryCtx's single answer.
func queryOne(out [][]int, st QueryStats, err error) ([]int, QueryStats, error) {
	if err != nil {
		return nil, st, err
	}
	return out[0], st, nil
}

// --- Engine (discrete-sample model) -----------------------------------

// QueryCtx implements Querier: the index-accelerated query (one R-tree
// filtering pass for all objects, MBR-level bound pruning, exact
// evaluation of the undecided band) as a batch of one — identical results
// to the naive oracle causality.NaivePRSQ.
func (e *Engine) QueryCtx(ctx context.Context, q Point, alpha float64, opts QueryOptions) ([]int, QueryStats, error) {
	return queryOne(e.QueryBatchStream(ctx, []Point{q}, alpha, opts, nil))
}

// QueryBatchStream implements Querier: one shared left-descent R-tree
// self-join answers every query point, with strictly fewer total node
// accesses than the equivalent per-point QueryCtx calls for batches of two
// or more, and answers streamed per query as their undecided bands
// settle.
func (e *Engine) QueryBatchStream(ctx context.Context, qs []Point, alpha float64, opts QueryOptions,
	emit func(index int, ids []int)) ([][]int, QueryStats, error) {

	for _, q := range qs {
		if err := checkDims(q, e.Dims()); err != nil {
			return nil, QueryStats{}, err
		}
	}
	if err := checkAlphaUnit(alpha); err != nil {
		return nil, QueryStats{}, err
	}
	return prsq.QueryBatchStreamStatsCtx(ctx, e.ds, qs, alpha, opts, emit)
}

// ProbCtx implements Querier: the Lemma-2 candidate filter (one R-tree
// traversal against an's sample dominance windows) and one Eq.-2
// evaluation over the ascending candidates.
func (e *Engine) ProbCtx(ctx context.Context, id int, q Point, opts QueryOptions) (float64, QueryStats, error) {
	if err := checkProbe(ctx, id, id >= 0 && id < e.Len() && e.ds.Objects[id] != nil, q, e.Dims()); err != nil {
		return 0, QueryStats{}, err
	}
	pr, accesses := causality.PrFiltered(e.ds, q, id)
	return pr, QueryStats{Evaluated: 1, NodeAccesses: accesses}, nil
}

// ExplainCtx implements Explainer: algorithm CP under a context.
func (e *Engine) ExplainCtx(ctx context.Context, id int, q Point, alpha float64, opts Options) (*Explanation, error) {
	return causality.CPCtx(ctx, e.ds, q, id, alpha, opts)
}

// RepairCtx implements Explainer: a smallest set of objects whose removal
// makes the non-answer id an answer at threshold alpha — the actionable
// follow-up to an explanation ("what is the smallest set of competitors to
// beat?"). Large refinement pools fall back to a greedy construction
// (Exact=false).
func (e *Engine) RepairCtx(ctx context.Context, id int, q Point, alpha float64, opts Options) (*Repair, error) {
	return causality.MinimalRepairCtx(ctx, e.ds, q, id, alpha, opts)
}

// VerifyCtx implements Explainer: an independent re-check of an
// explanation against Definition 1 — every reported cause's contingency
// set must witness causehood and the responsibility arithmetic must hold.
func (e *Engine) VerifyCtx(ctx context.Context, q Point, alpha float64, res *Explanation) error {
	if err := ctxPrecheck(ctx); err != nil {
		return err
	}
	defer obs.FromContext(ctx).StartSpan("explain.verify")()
	return causality.VerifyExplanation(e.ds, q, alpha, res)
}

// --- CertainEngine (certain data, Section 4) --------------------------

// QueryCtx implements Querier over certain data: alpha is validated to be
// exactly 1, and the reverse skyline (ascending IDs) is the BBRS traversal
// of QueryBatchStream run on one point.
func (e *CertainEngine) QueryCtx(ctx context.Context, q Point, alpha float64, opts QueryOptions) ([]int, QueryStats, error) {
	return queryOne(e.QueryBatchStream(ctx, []Point{q}, alpha, opts, nil))
}

// QueryBatchStream implements Querier: each query point runs its own BBRS
// branch-and-bound traversal over scratch the batch reuses, then the exact
// per-query verification, and its answer is streamed in request order. An
// R-tree node is counted in QueryStats.NodeAccesses once however many of
// the batch's traversals read it; every traversal reads the root, so for
// two or more queries the batch records strictly fewer node accesses than
// per-point QueryCtx calls, with element-wise identical answers. ctx is
// checked before each query: a cancellation stops the batch at the next
// query boundary, and the answers already emitted stand.
// A traced call adds query.bbrsNodeAccesses (equal to
// QueryStats.NodeAccesses) and query.bbrsCandidates (the candidates
// verified) under the query.bbrs span.
func (e *CertainEngine) QueryBatchStream(ctx context.Context, qs []Point, alpha float64, opts QueryOptions,
	emit func(index int, ids []int)) ([][]int, QueryStats, error) {

	for _, q := range qs {
		if err := checkDims(q, e.Dims()); err != nil {
			return nil, QueryStats{}, err
		}
	}
	if err := checkAlphaOne(alpha); err != nil {
		return nil, QueryStats{}, err
	}
	if err := ctxPrecheck(ctx); err != nil {
		return nil, QueryStats{}, err
	}
	tr := obs.FromContext(ctx)
	endBBRS := tr.StartSpan("query.bbrs")
	out, bst, err := e.ix.ReverseSkylineBBRSBatch(ctx, qs, func(k int, ids []int) {
		if emit != nil {
			if ids == nil {
				ids = []int{}
			}
			emit(k, ids)
		}
	})
	endBBRS()
	tr.Add("query.bbrsNodeAccesses", bst.NodeAccesses)
	tr.Add("query.bbrsCandidates", int64(bst.Candidates))
	if err != nil {
		return nil, QueryStats{NodeAccesses: bst.NodeAccesses}, ctxutil.WrapCanceled(err, 0, 0)
	}
	for k := range out {
		if out[k] == nil {
			out[k] = []int{}
		}
	}
	// Evaluated counts exact Eq.-2 evaluations; BBRS performs none, so the
	// stat stays zero and cross-model aggregation stays meaningful. Objects
	// aggregates the per-query decision counts.
	return out, QueryStats{Objects: e.Len() * len(qs), NodeAccesses: bst.NodeAccesses}, nil
}

// ProbCtx implements Querier on certain data: 1 if point id is a reverse
// skyline point of q and 0 otherwise, decided by one dominance window
// query that stops at the first dominator (Lemma 7).
func (e *CertainEngine) ProbCtx(ctx context.Context, id int, q Point, opts QueryOptions) (float64, QueryStats, error) {
	if err := checkProbe(ctx, id, id >= 0 && id < e.Len() && !e.ix.Deleted(id), q, e.Dims()); err != nil {
		return 0, QueryStats{}, err
	}
	member, accesses := e.ix.Member(id, q)
	pr := 0.0
	if member {
		pr = 1
	}
	return pr, QueryStats{NodeAccesses: accesses}, nil
}

// ExplainCtx implements Explainer: algorithm CR (Lemma 7 — single window
// query, no refinement, so opts carries no tuning for this engine). alpha
// is validated to be exactly 1.
func (e *CertainEngine) ExplainCtx(ctx context.Context, id int, q Point, alpha float64, opts Options) (*Explanation, error) {
	if err := checkAlphaOne(alpha); err != nil {
		return nil, err
	}
	if err := ctxPrecheck(ctx); err != nil {
		return nil, err
	}
	return causality.CR(e.ix, q, id)
}

// RepairCtx implements Explainer in closed form (Lemma 7): the unique
// minimum repair is the whole dominator set Cc, found by CR's window query
// (Exact, NewPr = 1). alpha is validated to be exactly 1; opts carries no
// tuning for this engine.
func (e *CertainEngine) RepairCtx(ctx context.Context, id int, q Point, alpha float64, opts Options) (*Repair, error) {
	if err := checkAlphaOne(alpha); err != nil {
		return nil, err
	}
	return causality.RepairCR(ctx, e.ix, q, id)
}

// VerifyCtx implements Explainer in closed form (Lemma 7): the
// Definition-1 audit against a dominator set recomputed by a linear scan
// that does not touch the R-tree. alpha is validated to be exactly 1.
func (e *CertainEngine) VerifyCtx(ctx context.Context, q Point, alpha float64, res *Explanation) error {
	if err := checkAlphaOne(alpha); err != nil {
		return err
	}
	if err := ctxPrecheck(ctx); err != nil {
		return err
	}
	defer obs.FromContext(ctx).StartSpan("explain.verify")()
	return causality.VerifyCR(e.ix, q, res)
}

// --- PDFEngine (continuous model) --------------------------------------

// QueryCtx implements Querier: the index-accelerated pdf query (one R-tree
// join, Γ1 core-rect pruning, quadrature of the survivors) as a batch of
// one — identical results to the naive oracle prob.PRSQPDF.
// The quadrature resolution comes from opts.QuadNodes (<= 0 selects the
// dimension-adapted default).
func (e *PDFEngine) QueryCtx(ctx context.Context, q Point, alpha float64, opts QueryOptions) ([]int, QueryStats, error) {
	return queryOne(e.QueryBatchStream(ctx, []Point{q}, alpha, opts, nil))
}

// QueryBatchStream implements Querier with the shared left-descent join of
// the sample model applied to the pdf geometry, answers streamed per query
// as their undecided bands settle.
func (e *PDFEngine) QueryBatchStream(ctx context.Context, qs []Point, alpha float64, opts QueryOptions,
	emit func(index int, ids []int)) ([][]int, QueryStats, error) {

	for _, q := range qs {
		if err := checkDims(q, e.Dims()); err != nil {
			return nil, QueryStats{}, err
		}
	}
	if err := checkAlphaUnit(alpha); err != nil {
		return nil, QueryStats{}, err
	}
	if err := uncertain.CheckQuadNodes(opts.QuadNodes, e.Dims()); err != nil {
		return nil, QueryStats{}, err
	}
	return prsq.QueryBatchPDFStreamStatsCtx(ctx, e.set, qs, alpha, opts.QuadNodes, opts, emit)
}

// ProbCtx implements Querier: CPPDF's sub-quadrant candidate filter and one
// quadrature of Eq. 2 over the ascending candidates at opts.QuadNodes
// nodes per dimension (<= 0 selects the dimension-adapted default; a grid
// too large to build is rejected). Every object the filter drops has zero
// dominance mass over an's region, so the value is bit-identical to the
// integral against all objects that the naive oracle prob.PRSQPDF
// thresholds.
func (e *PDFEngine) ProbCtx(ctx context.Context, id int, q Point, opts QueryOptions) (float64, QueryStats, error) {
	if err := checkProbe(ctx, id, id >= 0 && id < e.Len() && e.set.Objects[id] != nil, q, e.Dims()); err != nil {
		return 0, QueryStats{}, err
	}
	if err := uncertain.CheckQuadNodes(opts.QuadNodes, e.Dims()); err != nil {
		return 0, QueryStats{}, err
	}
	candIDs, accesses := e.set.FilterCandidates(q, id)
	cands := make([]*PDFObject, len(candIDs))
	for i, cid := range candIDs {
		cands[i] = e.set.Objects[cid]
	}
	pr := prob.PrReverseSkylinePDF(e.set.Objects[id], q, cands, opts.QuadNodes)
	return pr, QueryStats{Evaluated: 1, NodeAccesses: accesses}, nil
}

// ExplainCtx implements Explainer: the pdf-model variant of CP under a
// context.
func (e *PDFEngine) ExplainCtx(ctx context.Context, id int, q Point, alpha float64, opts Options) (*Explanation, error) {
	if err := uncertain.CheckQuadNodes(opts.QuadNodes, e.Dims()); err != nil {
		return nil, err
	}
	return causality.CPPDFCtx(ctx, e.set, q, id, alpha, opts)
}

// RepairCtx implements Explainer: CPPDF's sub-quadrant candidate filter
// feeding the shared kernel/greedy/branch-and-bound repair search, with
// every probability an integral over the non-answer's uncertainty region
// by a quadrature rule derived for this call.
func (e *PDFEngine) RepairCtx(ctx context.Context, id int, q Point, alpha float64, opts Options) (*Repair, error) {
	if err := uncertain.CheckQuadNodes(opts.QuadNodes, e.Dims()); err != nil {
		return nil, err
	}
	return causality.MinimalRepairPDFCtx(ctx, e.set, q, id, alpha, opts)
}

// VerifyCtx implements Explainer: the Definition-1 re-check with each
// condition integrated by Gauss–Legendre cubature. The quadrature
// resolution comes from res.QuadNodes — recorded by ExplainCtx — so the
// verifier re-integrates at exactly the discretization the search used (a
// zero falls back to the dimension-adapted default).
func (e *PDFEngine) VerifyCtx(ctx context.Context, q Point, alpha float64, res *Explanation) error {
	if err := ctxPrecheck(ctx); err != nil {
		return err
	}
	quadNodes := 0
	if res != nil {
		quadNodes = res.QuadNodes
	}
	if err := uncertain.CheckQuadNodes(quadNodes, e.Dims()); err != nil {
		return err
	}
	defer obs.FromContext(ctx).StartSpan("explain.verify")()
	return causality.VerifyExplanationPDF(e.set, q, alpha, quadNodes, res)
}
