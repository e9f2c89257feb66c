package prsq

import (
	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prob"
)

// pdfStreamState is the per-query stream state of the
// continuous model: the same streaming join with the Section-3.2 geometry
// in place of the sample-level tests:
//
//   - the per-pair refinement intersects the candidate region with the
//     object's sub-quadrant farthest-corner rectangles (objects excluded
//     here have dominance mass exactly 0 at every quadrature node, so the
//     restricted Eq.-2 product is bit-identical to the full one);
//   - the reject bound is the Γ1 core rectangle: a candidate region inside
//     it dominates q w.r.t. every anchor with probability exactly 1,
//     pinning Pr(u) to exactly 0 and stopping the stream;
//   - the second tier generalizes that all-or-nothing test: a candidate's
//     probability mass inside the core rectangle lower-bounds its dominance
//     probability at every anchor of the region, so the product of
//     (1 − mass) over the streamed candidates upper-bounds Pr(u) — the
//     stream stops as soon as the product falls below the threshold.
//
// Everything not rejected is evaluated exactly by quadrature (there is no
// cheap accept bound for continuous densities — even the empty-candidate
// probability is the quadrature weight sum, which coarse grids may leave
// just below 1), except at α ≤ prob.Eps, where begin accepts every object.
type pdfStreamState struct {
	set   *causality.PDFSet
	q     geom.Point
	alpha float64
	opt   Options
	stats Stats

	// Per-current-object scratch, reset by begin.
	pieces  []geom.Rect // sub-quadrant farthest-corner filter rectangles
	core    geom.Rect   // Γ1 nearest-corner rectangle
	hasCore bool
	// ubProd upper-bounds Pr(u): each buffered candidate contributes a
	// factor (1 − its probability mass inside the core rectangle). The
	// core rectangle is contained in the dominance rectangle of every
	// anchor in u's region, so the mass lower-bounds the candidate's
	// dominance probability at every quadrature node and the product
	// upper-bounds every node's Eq.-2 term.
	ubProd       float64
	rejectedNow  bool
	rejectedTier uint8
	buf          []int32

	undecidedIDs   []int
	undecidedCands [][]int32
}

// leafCore opts the pdf model out of the join's whole-leaf reject: each
// object's Γ1 rectangle (prob.CoreRectPDF) is padded inward per object, so
// no rectangle derived from a leaf's box alone lies inside every member's.
func (st *pdfStreamState) leafCore(_, _ geom.Rect) func(int) bool { return nil }

// begin starts object id's stream; at α ≤ prob.Eps it accepts the object
// at tier 1 with no stream instead, as streamState.begin does.
func (st *pdfStreamState) begin(id int, _ geom.Rect) bool {
	if !st.opt.NoBounds && !(st.alpha > prob.Eps) {
		st.stats.AcceptedByBound++
		return false
	}
	u := st.set.Objects[id]
	st.pieces = prob.CandidateRectsPDF(u, st.q)
	st.core, st.hasCore = prob.CoreRectPDF(u, st.q)
	st.ubProd = 1
	st.rejectedNow = false
	st.rejectedTier = 0
	st.buf = st.buf[:0]
	return true
}

func (st *pdfStreamState) pair(_, cid int, cRect geom.Rect) bool {
	st.stats.CandidatePairs++
	hit := false
	for i := range st.pieces {
		if st.pieces[i].Intersects(cRect) {
			hit = true
			break
		}
	}
	if !hit {
		return true
	}
	st.buf = append(st.buf, int32(cid))
	if st.opt.NoBounds || !st.hasCore {
		return true
	}
	c := st.set.Objects[cid]
	if st.core.ContainsRect(c.Region) {
		st.rejectedNow = true
		st.rejectedTier = 1
		return false
	}
	if !st.opt.NoTier2 {
		// Mass inside the (inward-shrunk) core rectangle; only trusted
		// above the snap-to-zero band so the bound stays conservative
		// under prob.DomProbPDF's snapping.
		if lb := c.Prob(st.core); lb > prob.Eps {
			st.ubProd *= 1 - lb
			if prob.Less(st.ubProd, st.alpha) {
				st.rejectedNow = true
				st.rejectedTier = 2
				return false
			}
		}
	}
	return true
}

func (st *pdfStreamState) finish(id int) decision {
	if st.rejectedNow {
		if st.rejectedTier == 2 {
			st.stats.RejectedByTier2++
		} else {
			st.stats.RejectedByBound++
		}
		return rejected
	}
	if len(st.buf) == 0 {
		st.stats.EmptyCandidates++
	}
	// No accept shortcut for pdf data: queue for exact quadrature (cheap
	// when the candidate list is empty).
	st.undecidedIDs = append(st.undecidedIDs, id)
	st.undecidedCands = append(st.undecidedCands, append([]int32(nil), st.buf...))
	return undecided
}
