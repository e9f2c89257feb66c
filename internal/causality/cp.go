package causality

import (
	"context"
	"fmt"
	"sort"

	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/obs"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/uncertain"
)

// CP computes the causality and responsibility for a non-answer to a
// probabilistic reverse skyline query (Algorithm 1). It follows the paper's
// filter-and-refinement framework:
//
//  1. Filter (Lemma 2): one multi-window R-tree traversal over the dominance
//     rectangles of an's samples collects the candidate causes — the only
//     objects that can dominate q w.r.t. an in some possible world
//     (Lemma 1), and by Lemma 3 the only possible contingency-set members.
//  2. α = 1 fast path (lines 9–11): every candidate is an actual cause with
//     responsibility 1/|Cc|.
//  3. Refinement: counterfactual causes are reported directly (Lemma 5) and
//     each remaining candidate's minimum contingency set is found by FMCS
//     with Γ1 forcing (Lemma 4) and Lemma 6 bound propagation.
func CP(ds *dataset.Uncertain, q geom.Point, anID int, alpha float64, opts Options) (*Result, error) {
	return CPCtx(context.Background(), ds, q, anID, alpha, opts)
}

// CPCtx is CP under a context: the refinement polls ctx every
// ctxutil.DefaultStride search nodes (reusing the MaxSubsets budget-charging
// points, so the check never perturbs the search order) and returns a typed
// *ctxutil.CanceledError wrapping the context error — with the partial
// SubsetsExamined counter — when canceled. The engine state is fully
// restored on cancellation; a subsequent call computes the same result an
// uncanceled run would have.
func CPCtx(ctx context.Context, ds *dataset.Uncertain, q geom.Point, anID int, alpha float64, opts Options) (*Result, error) {
	if anID < 0 || anID >= ds.Len() || ds.Objects[anID] == nil {
		return nil, fmt.Errorf("%w: %d", ErrBadObject, anID)
	}
	if err := checkQuery(q, ds.Dims(), alpha); err != nil {
		return nil, err
	}
	if err := precheck(ctx); err != nil {
		return nil, err
	}
	an := ds.Objects[anID]

	tr := obs.FromContext(ctx)
	endFilter := tr.StartSpan("explain.filter")
	candIDs, filterIO := FilterCandidatesCounted(ds, q, an)
	endFilter()
	if opts.MaxCandidates > 0 && len(candIDs) > opts.MaxCandidates {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooManyCandidates, len(candIDs), opts.MaxCandidates)
	}
	cands := make([]*uncertain.Object, len(candIDs))
	for i, id := range candIDs {
		cands[i] = ds.Objects[id]
	}
	e := prob.NewEvaluator(an, q, cands)

	pr := e.Pr()
	if prob.GEq(pr, alpha) {
		return nil, fmt.Errorf("%w: Pr=%.6g, α=%.6g", ErrNotNonAnswer, pr, alpha)
	}

	res := &Result{NonAnswer: anID, Pr: pr, Candidates: len(candIDs), FilterNodeAccesses: filterIO}

	if prob.GEq(alpha, 1) {
		// Lines 9–11: the only contingency set for each candidate is all
		// the other candidates, so responsibilities are all 1/|Cc|.
		res.Causes = alphaOneCauses(candIDs)
		res.addToTrace(tr)
		return res, nil
	}

	r := newRefiner(ctx, e, candIDs, alpha, opts)
	causes, err := r.run()
	if err != nil {
		return nil, err
	}
	res.Causes = causes
	res.SubsetsExamined = r.subsetsExamined
	res.addToTrace(tr)
	return res, nil
}

// addToTrace folds the explanation's effort counters into a request trace
// (nil tr is a no-op) — the same vocabulary the ?trace=1 response and the
// slow-query log share.
func (r *Result) addToTrace(tr *obs.Trace) {
	if tr == nil {
		return
	}
	tr.Add("explain.candidates", int64(r.Candidates))
	tr.Add("explain.filterNodeAccesses", r.FilterNodeAccesses)
	tr.Add("explain.subsetsExamined", r.SubsetsExamined)
}

// FilterCandidates performs the Lemma-2 filtering step: a single
// branch-and-bound traversal of the dataset R-tree against the dominance
// rectangles of every sample of an, followed by the exact dominance check
// (rectangle boundaries where every coordinate ties do not dominate).
// Returns candidate object IDs in ascending order.
func FilterCandidates(ds *dataset.Uncertain, q geom.Point, an *uncertain.Object) []int {
	ids, _ := FilterCandidatesCounted(ds, q, an)
	return ids
}

// FilterCandidatesCounted is FilterCandidates also returning the node
// accesses of the retrieval traversal.
func FilterCandidatesCounted(ds *dataset.Uncertain, q geom.Point, an *uncertain.Object) ([]int, int64) {
	recs := make([]geom.Rect, len(an.Samples))
	anchors := make([]geom.Point, len(an.Samples))
	for i, s := range an.Samples {
		recs[i] = geom.DomRectOuter(s.Loc, q)
		anchors[i] = s.Loc
	}
	// Windows fully contained in another window are redundant: any
	// rectangle meeting the contained one meets its container, so the
	// traversal's intersects-any decisions — and therefore its node
	// accesses — are unchanged while each visited entry tests fewer
	// windows. Samples of a tight object mostly mirror each other's
	// dominance rectangles, so the dedup routinely collapses the list.
	recs = dropContainedWindows(recs)
	var ids []int
	accesses := ds.Tree().SearchAny(recs, func(id int, _ geom.Rect) bool {
		if id == an.ID {
			return true
		}
		if objectCanDominate(ds.Objects[id], anchors, q) {
			ids = append(ids, id)
		}
		return true
	})
	sort.Ints(ids)
	return ids, accesses
}

// PrFiltered returns Pr(id) (Eq. 2) for the live object id over the
// candidates the Lemma-2 filter retrieves, ascending, with the filter's
// node accesses: one object's membership probe.
func PrFiltered(ds *dataset.Uncertain, q geom.Point, id int) (float64, int64) {
	an := ds.Objects[id]
	candIDs, accesses := FilterCandidatesCounted(ds, q, an)
	cands := make([]*uncertain.Object, len(candIDs))
	for i, cid := range candIDs {
		cands[i] = ds.Objects[cid]
	}
	return prob.PrReverseSkyline(an, q, cands), accesses
}

// NaivePRSQ answers the probabilistic reverse skyline query with the
// pre-acceleration per-object loop: one PrFiltered probe per live object.
// It returns the ascending answers with the node accesses of all the
// filter traversals. It is the correctness oracle and the benchmark
// baseline of the index-accelerated query.
func NaivePRSQ(ds *dataset.Uncertain, q geom.Point, alpha float64) ([]int, int64) {
	var out []int
	var accesses int64
	for id, o := range ds.Objects {
		if o == nil {
			continue
		}
		pr, n := PrFiltered(ds, q, id)
		accesses += n
		if prob.GEq(pr, alpha) {
			out = append(out, id)
		}
	}
	return out, accesses
}

// dropContainedWindows removes every rectangle contained in another one,
// preserving the union of the windows exactly. Quadratic in the window
// count, which is bounded by an object's sample count.
func dropContainedWindows(recs []geom.Rect) []geom.Rect {
	if len(recs) < 2 {
		return recs
	}
	drop := make([]bool, len(recs))
	for i, r := range recs {
		for j, s := range recs {
			if i == j || drop[j] {
				continue
			}
			// Break containment ties (identical rectangles) by index so
			// exactly one survives.
			if s.ContainsRect(r) && !(r.ContainsRect(s) && i < j) {
				drop[i] = true
				break
			}
		}
	}
	kept := recs[:0]
	for i, r := range recs {
		if !drop[i] {
			kept = append(kept, r)
		}
	}
	return kept
}

// objectCanDominate reports whether some sample of o dynamically dominates
// q w.r.t. some anchor — the exact form of the Lemma-2 candidate test.
func objectCanDominate(o *uncertain.Object, anchors []geom.Point, q geom.Point) bool {
	for _, s := range o.Samples {
		for _, a := range anchors {
			if geom.DynDominates(s.Loc, q, a) {
				return true
			}
		}
	}
	return false
}

// alphaOneCauses materializes the α = 1 case, which is Lemma 7 on certain
// data: every candidate is an actual cause with contingency set Cc − {c}
// and responsibility 1/|Cc|. CP and CPPDF at α = 1 and CR share it.
func alphaOneCauses(candIDs []int) []Cause {
	causes := make([]Cause, len(candIDs))
	for i, id := range candIDs {
		contingency := make([]int, 0, len(candIDs)-1)
		for _, other := range candIDs {
			if other != id {
				contingency = append(contingency, other)
			}
		}
		causes[i] = Cause{
			ID:             id,
			Responsibility: 1 / float64(len(candIDs)),
			Contingency:    contingency,
			Counterfactual: len(candIDs) == 1,
		}
	}
	sortCauses(causes)
	return causes
}

func checkQuery(q geom.Point, dims int, alpha float64) error {
	if q.Dims() != dims {
		return fmt.Errorf("causality: query point has %d dims, dataset has %d", q.Dims(), dims)
	}
	if !q.IsFinite() {
		return fmt.Errorf("causality: query point has non-finite coordinates")
	}
	if !(alpha > 0 && alpha <= 1) {
		return fmt.Errorf("causality: alpha %v out of (0, 1]", alpha)
	}
	return nil
}
