package prob

import (
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/uncertain"
)

// DomProbPDF returns Pr{o ≺_anchor q} for a continuous-model object: the
// probability mass of o inside the dominance rectangle DomRect(anchor, q).
// The rectangle boundary has measure zero under a continuous density, so
// the strictness condition of dynamic dominance is handled implicitly —
// this is the pdf-model counterpart of Eq. (3) described in Section 3.2.
func DomProbPDF(o *uncertain.PDFObject, anchor, q geom.Point) float64 {
	return snap(o.Prob(geom.DomRect(anchor, q)))
}

// PrReverseSkylinePDF returns Pr(an) for a continuous-model non-answer an
// against the other pdf objects: the integral over an's uncertainty region
// of pdf_an(x) · Π_o (1 − Pr{o ≺_x q}) dx, approximated with a
// probability-weighted Gauss–Legendre cubature of nodesPerDim points per
// dimension (pass 0 for the dimension-adapted default). Objects identical
// to an (by pointer) are skipped.
func PrReverseSkylinePDF(an *uncertain.PDFObject, q geom.Point, others []*uncertain.PDFObject, nodesPerDim int) float64 {
	if nodesPerDim <= 0 {
		nodesPerDim = uncertain.DefaultQuadNodes(an.Dims())
	}
	nodes := an.Quadrature(nodesPerDim)
	var pr float64
	for _, n := range nodes {
		term := n.W
		for _, o := range others {
			if o == nil || o == an { // nil: tombstone slot of a mutated dataset
				continue
			}
			term *= 1 - DomProbPDF(o, n.X, q)
			if term == 0 {
				break
			}
		}
		pr += term
	}
	return snap(pr)
}

// NewPDFEvaluator builds an incremental evaluator for a continuous-model
// non-answer: the cubature nodes of an act as weighted pseudo-samples and
// each candidate's dominance probability at a node is the exact mass of the
// candidate inside the node's dominance rectangle. A candidate with zero
// mass at every node gets no row: it is a geometric false positive of the
// candidate filter, not an actual cause (Lemma 1), and its Eq.-2 factor is
// exactly 1. kept lists, ascending, the position in cands of each row.
func NewPDFEvaluator(an *uncertain.PDFObject, q geom.Point, cands []*uncertain.PDFObject, nodesPerDim int) (e *Evaluator, kept []int) {
	if nodesPerDim <= 0 {
		nodesPerDim = uncertain.DefaultQuadNodes(an.Dims())
	}
	nodes := an.Quadrature(nodesPerDim)
	cols := len(nodes)
	weights := make([]float64, cols)
	for i, n := range nodes {
		weights[i] = n.W
	}
	d := make([]float64, len(cands)*cols)
	kept = make([]int, 0, len(cands))
	for j, c := range cands {
		// Fill the next free row; a row of zeros is overwritten by the
		// next candidate's.
		row := d[len(kept)*cols : (len(kept)+1)*cols]
		mass := false
		for i, n := range nodes {
			row[i] = DomProbPDF(c, n.X, q)
			mass = mass || row[i] != 0
		}
		if mass {
			kept = append(kept, j)
		}
	}
	return newEvaluatorFlat(weights, d[:len(kept)*cols], len(kept)), kept
}

// CandidateRectsPDF returns the pdf-model candidate-filter rectangles for a
// non-answer an (Section 3.2, first difference): one dominance rectangle per
// sub-quadrant piece of an's uncertainty region, each formed through the
// piece's farthest corner from q. Any object with positive dominance
// probability w.r.t. some point of an's region intersects at least one of
// these rectangles.
func CandidateRectsPDF(an *uncertain.PDFObject, q geom.Point) []geom.Rect {
	pieces := geom.SplitByQuadrants(an.Region, q)
	recs := make([]geom.Rect, len(pieces))
	for i, pc := range pieces {
		far := pc.Rect.FarthestCorner(q)
		recs[i] = geom.DomRectOuter(far, q)
	}
	return recs
}

// CoreRectPDF returns the pdf-model Γ1 rectangle for a non-answer an
// (Section 3.2, second difference): the dominance rectangle through the
// nearest corner of an's region to q. Objects fully inside it dominate q
// w.r.t. every point of an's region, hence belong to every minimum
// contingency set. The rectangle only exists when an's region lies in a
// single sub-quadrant of q (ok == false otherwise, cf. Fig. 4).
func CoreRectPDF(an *uncertain.PDFObject, q geom.Point) (geom.Rect, bool) {
	if !geom.InSingleQuadrant(an.Region, q) {
		return geom.Rect{}, false
	}
	near := an.Region.NearestCorner(q)
	return geom.DomRectInner(near, q), true
}
