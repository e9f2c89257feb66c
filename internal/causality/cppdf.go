package causality

import (
	"context"
	"fmt"
	"sort"

	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/obs"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/rtree"
	"github.com/crsky/crsky/internal/uncertain"
)

// PDFSet is a continuous-model uncertain dataset: pdf objects whose IDs
// equal their slice positions, with a lazily built R-tree over the
// uncertainty regions. Deleted objects leave nil tombstones (see
// WithDelete); IDs are never reused.
type PDFSet struct {
	Objects []*uncertain.PDFObject
	tree    *rtree.Tree
	// dims pins the dimensionality on sets that may hold tombstones;
	// 0 = derive from the first live object.
	dims int
}

// NewPDFSet validates the objects and wraps them.
func NewPDFSet(objs []*uncertain.PDFObject) (*PDFSet, error) {
	if len(objs) == 0 {
		return nil, fmt.Errorf("causality: no pdf objects")
	}
	d := objs[0].Dims()
	for i, o := range objs {
		if o.ID != i {
			return nil, fmt.Errorf("causality: pdf object at index %d has ID %d", i, o.ID)
		}
		if err := o.Validate(); err != nil {
			return nil, err
		}
		if o.Dims() != d {
			return nil, fmt.Errorf("causality: pdf object %d has %d dims, want %d", i, o.Dims(), d)
		}
	}
	return &PDFSet{Objects: objs}, nil
}

// Len returns the number of objects.
func (s *PDFSet) Len() int { return len(s.Objects) }

// Dims returns the dataset dimensionality.
func (s *PDFSet) Dims() int {
	if s.dims > 0 {
		return s.dims
	}
	for _, o := range s.Objects {
		if o != nil {
			return o.Dims()
		}
	}
	return 0
}

// Tree returns the R-tree over uncertainty regions, built on first use.
// Tombstone slots are not indexed.
func (s *PDFSet) Tree(opts ...rtree.Option) *rtree.Tree {
	if s.tree == nil {
		items := make([]rtree.Item, 0, len(s.Objects))
		for i, o := range s.Objects {
			if o == nil {
				continue
			}
			items = append(items, rtree.Item{Rect: o.Region.Clone(), ID: i})
		}
		t := rtree.New(s.Dims(), opts...)
		t.BulkLoad(items)
		s.tree = t
	}
	return s.tree
}

// WithInsert returns a copy of s with o appended, sharing index structure
// copy-on-write with the receiver (which is never modified). The object's
// ID must be len(s.Objects), the next positional slot.
func (s *PDFSet) WithInsert(o *uncertain.PDFObject) (*PDFSet, error) {
	if o == nil {
		return nil, fmt.Errorf("causality: nil pdf object")
	}
	if o.ID != len(s.Objects) {
		return nil, fmt.Errorf("causality: insert ID %d, want next slot %d", o.ID, len(s.Objects))
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if d := s.Dims(); d > 0 && o.Dims() != d {
		return nil, fmt.Errorf("causality: pdf object has %d dims, set has %d", o.Dims(), d)
	}
	ns := s.cowShell()
	ns.Objects = append(ns.Objects, o)
	ns.tree.Insert(o.Region.Clone(), o.ID)
	return ns, nil
}

// WithDelete returns a copy of s with object id tombstoned.
func (s *PDFSet) WithDelete(id int) (*PDFSet, error) {
	if id < 0 || id >= len(s.Objects) {
		return nil, fmt.Errorf("%w: %d", ErrBadObject, id)
	}
	o := s.Objects[id]
	if o == nil {
		return nil, fmt.Errorf("%w: %d already deleted", ErrBadObject, id)
	}
	ns := s.cowShell()
	if !ns.tree.Delete(o.Region, id) {
		return nil, fmt.Errorf("causality: pdf object %d missing from the index", id)
	}
	ns.Objects[id] = nil
	return ns, nil
}

func (s *PDFSet) cowShell() *PDFSet {
	tree := s.Tree().CloneCOW()
	objs := make([]*uncertain.PDFObject, len(s.Objects))
	copy(objs, s.Objects)
	return &PDFSet{Objects: objs, tree: tree, dims: s.Dims()}
}

// FilterCandidates is the pdf-model candidate filter (Section 3.2, first
// difference): one R-tree traversal against CandidateRectsPDF's
// sub-quadrant rectangles of the live object anID. It returns the IDs of
// every other object whose region meets one of them, ascending, and the
// node accesses of the traversal. An object it leaves out has zero
// dominance mass w.r.t. every point of anID's region, so dropping it from
// an Eq.-2 product drops an exact ×1 factor.
func (s *PDFSet) FilterCandidates(q geom.Point, anID int) ([]int, int64) {
	var ids []int
	accesses := s.Tree().SearchAny(prob.CandidateRectsPDF(s.Objects[anID], q), func(id int, _ geom.Rect) bool {
		if id != anID {
			ids = append(ids, id)
		}
		return true
	})
	sort.Ints(ids)
	return ids, accesses
}

// evaluator builds the quadrature-backed evaluator of an over the filter's
// candidates candIDs. The evaluator gives no row to a candidate with zero
// dominance mass (a region that touches a filter rectangle but never
// dominates q), so such candidates are dropped from candIDs in place and
// the refinement space stays tight. The returned IDs and objects are the
// evaluator's rows, in order.
func (s *PDFSet) evaluator(an *uncertain.PDFObject, q geom.Point, candIDs []int, quadNodes int) (*prob.Evaluator, []int, []*uncertain.PDFObject) {
	cands := make([]*uncertain.PDFObject, len(candIDs))
	for i, id := range candIDs {
		cands[i] = s.Objects[id]
	}
	e, kept := prob.NewPDFEvaluator(an, q, cands, quadNodes)
	for i, j := range kept {
		candIDs[i], cands[i] = candIDs[j], cands[j]
	}
	return e, candIDs[:len(kept)], cands[:len(kept)]
}

// CPPDF is the continuous-pdf variant of CP (Section 3.2). The three
// differences from the discrete algorithm are exactly the paper's:
//
//  1. the candidate filter uses one dominance rectangle per sub-quadrant
//     piece of an's uncertainty region, formed through the piece's
//     farthest corner from q (instead of one rectangle per sample);
//  2. Γ1 membership is certified geometrically through the rectangle of
//     the nearest corner (objects inside it dominate q w.r.t. every point
//     of an's region), complemented by the evaluator's exact mass test;
//  3. probabilities are integrals instead of sums — dominance masses are
//     exact per-dimension products, and Pr(an | ·) integrates over an's
//     region with Gauss–Legendre cubature (Options.QuadNodes per dim).
func CPPDF(s *PDFSet, q geom.Point, anID int, alpha float64, opts Options) (*Result, error) {
	return CPPDFCtx(context.Background(), s, q, anID, alpha, opts)
}

// CPPDFCtx is CPPDF under a context, with the same cancellation contract as
// CPCtx: an amortized poll at the budget-charging points and a typed
// *ctxutil.CanceledError with partial statistics on cancellation.
func CPPDFCtx(ctx context.Context, s *PDFSet, q geom.Point, anID int, alpha float64, opts Options) (*Result, error) {
	if anID < 0 || anID >= s.Len() || s.Objects[anID] == nil {
		return nil, fmt.Errorf("%w: %d", ErrBadObject, anID)
	}
	if err := checkQuery(q, s.Dims(), alpha); err != nil {
		return nil, err
	}
	if err := precheck(ctx); err != nil {
		return nil, err
	}
	an := s.Objects[anID]

	// Resolve the quadrature resolution up front so the recorded value (and
	// any later re-verification) matches the integrals the search ran on.
	quadNodes := opts.QuadNodes
	if quadNodes <= 0 {
		quadNodes = uncertain.DefaultQuadNodes(s.Dims())
	}

	// Difference 1: sub-quadrant farthest-corner rectangles.
	tr := obs.FromContext(ctx)
	endFilter := tr.StartSpan("explain.filter")
	candIDs, filterIO := s.FilterCandidates(q, anID)
	endFilter()
	if opts.MaxCandidates > 0 && len(candIDs) > opts.MaxCandidates {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooManyCandidates, len(candIDs), opts.MaxCandidates)
	}

	e, candIDs, cands := s.evaluator(an, q, candIDs, quadNodes)
	pr := e.Pr()
	if prob.GEq(pr, alpha) {
		return nil, fmt.Errorf("%w: Pr=%.6g, α=%.6g", ErrNotNonAnswer, pr, alpha)
	}

	res := &Result{NonAnswer: anID, Pr: pr, Candidates: len(candIDs), FilterNodeAccesses: filterIO, QuadNodes: quadNodes}
	if prob.GEq(alpha, 1) {
		res.Causes = alphaOneCauses(candIDs)
		res.addToTrace(tr)
		return res, nil
	}

	r := newRefiner(ctx, e, candIDs, alpha, opts)
	// Difference 2: geometric Γ1 certification via the nearest-corner
	// rectangle. The evaluator's mass-based AlwaysDominates (set in
	// classify) and this test agree on exact arithmetic; the geometric
	// test is added for robustness against quadrature discretization.
	if core, ok := prob.CoreRectPDF(an, q); ok {
		for j, c := range cands {
			if core.ContainsRect(c.Region) {
				r.forced[j] = true
			}
		}
	}
	causes, err := r.run()
	if err != nil {
		return nil, err
	}
	res.Causes = causes
	res.SubsetsExamined = r.subsetsExamined
	res.addToTrace(tr)
	return res, nil
}
