// Package prob implements the probabilistic machinery of the paper: the
// dynamic-dominance probability of Eq. (3), the reverse-skyline probability
// of Eq. (2), threshold comparisons, probabilistic reverse skyline queries
// (Definition 4), and an incremental evaluator that makes the contingency-
// set verifications inside FMCS cheap.
package prob

import (
	"math"

	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/uncertain"
)

// Eps is the tolerance for probability comparisons. Probabilities are sums
// and products of float64 sample weights, so exact comparisons against the
// threshold α are unreliable; every `Pr >= α` decision in the system goes
// through GEq/Less instead.
const Eps = 1e-9

// GEq reports pr >= bound up to Eps.
func GEq(pr, bound float64) bool { return pr >= bound-Eps }

// Less reports pr < bound up to Eps.
func Less(pr, bound float64) bool { return !GEq(pr, bound) }

// Snap clamps probabilities to [0,1] and collapses values within Eps of the
// endpoints onto them, so that "dominates in every world" is recognized as
// exactly 1 even when sample probabilities (e.g. thirds) do not sum to an
// exact float64 one. Exported for callers (the prsq batch filter) that must
// reproduce the library's probability arithmetic bit-for-bit.
func Snap(p float64) float64 { return snap(p) }

func snap(p float64) float64 {
	switch {
	case p <= Eps:
		return 0
	case p >= 1-Eps:
		return 1
	default:
		return p
	}
}

// DomProb returns Pr{o ≺_anchor q}: the probability that uncertain object o
// dynamically dominates the query object q with respect to anchor (Eq. 3) —
// the summed probability of o's samples that dominate q w.r.t. anchor.
//
// The iteration runs over the object's SoA sample view: the per-dimension
// distances |q−anchor| are hoisted out of the sample loop and the per-sample
// test streams the dimension-contiguous coordinate arrays (rejecting most
// samples on dimension 0 without touching the rest). Comparisons and the
// probability accumulation order match domProbAoS exactly, so the result is
// bit-identical to the straightforward per-sample loop.
func DomProb(o *uncertain.Object, anchor, q geom.Point) float64 {
	d := len(anchor)
	if len(q) != d {
		panic("prob: anchor/query dimensionality mismatch")
	}
	soa := o.SoA()
	if soa.Len() == 0 {
		return 0
	}
	if len(soa.Coords) != d {
		panic("prob: object/query dimensionality mismatch")
	}
	var dbuf [8]float64
	var db []float64
	if d <= len(dbuf) {
		db = dbuf[:d]
	} else {
		db = make([]float64, d)
	}
	for k := 0; k < d; k++ {
		db[k] = math.Abs(q[k] - anchor[k])
	}
	var p float64
	for i, n := 0, soa.Len(); i < n; i++ {
		strict := false
		dominates := true
		for k := 0; k < d; k++ {
			da := math.Abs(soa.Coords[k][i] - anchor[k])
			if da > db[k] {
				dominates = false
				break
			}
			if da < db[k] {
				strict = true
			}
		}
		if dominates && strict {
			p += soa.Probs[i]
		}
	}
	return snap(p)
}

// domProbAoS is the pre-SoA reference implementation of DomProb, kept for
// the equivalence test and the layout benchmark.
func domProbAoS(o *uncertain.Object, anchor, q geom.Point) float64 {
	var p float64
	for _, s := range o.Samples {
		if geom.DynDominates(s.Loc, q, anchor) {
			p += s.P
		}
	}
	return snap(p)
}

// PrReverseSkyline returns Pr(u): the probability that u is a reverse
// skyline point of q against the given other objects (Eq. 2):
//
//	Pr(u) = Σ_i u_i.p · Π_{o ∈ others} (1 − Pr{o ≺_{u_i} q}).
//
// Objects equal to u (by pointer) are skipped, so callers may pass the whole
// dataset.
func PrReverseSkyline(u *uncertain.Object, q geom.Point, others []*uncertain.Object) float64 {
	var pr float64
	for _, s := range u.Samples {
		term := s.P
		for _, o := range others {
			if o == nil || o == u { // nil: tombstone slot of a mutated dataset
				continue
			}
			term *= 1 - DomProb(o, s.Loc, q)
			if term == 0 {
				break
			}
		}
		pr += term
	}
	return snap(pr)
}

// PRSQ evaluates the probabilistic reverse skyline query by direct Eq.-2
// computation over the given objects: the IDs of all u with Pr(u) >= alpha
// (Definition 4). Quadratic in the dataset size; the facade offers an
// index-accelerated variant for large datasets.
func PRSQ(objs []*uncertain.Object, q geom.Point, alpha float64) []int {
	var out []int
	for _, u := range objs {
		if u == nil { // tombstone slot of a mutated dataset
			continue
		}
		if GEq(PrReverseSkyline(u, q, objs), alpha) {
			out = append(out, u.ID)
		}
	}
	return out
}

// PRSQPDF is PRSQ for the continuous model: the positions of all live
// objects whose Pr (PrReverseSkylinePDF against every object, no index,
// no filter, no bounds) is at least alpha. It is the correctness oracle the
// accelerated pdf query and probe are conformance-tested against.
// nodesPerDim <= 0 selects the dimension-adapted default, and a grid too
// large to build is rejected with uncertain.CheckQuadNodes's error.
func PRSQPDF(objs []*uncertain.PDFObject, q geom.Point, alpha float64, nodesPerDim int) ([]int, error) {
	if err := uncertain.CheckQuadNodes(nodesPerDim, len(q)); err != nil {
		return nil, err
	}
	var out []int
	for id, o := range objs {
		if o == nil {
			continue
		}
		if GEq(PrReverseSkylinePDF(o, q, objs, nodesPerDim), alpha) {
			out = append(out, id)
		}
	}
	return out, nil
}

// IsAnswer reports whether u is an answer to the probabilistic reverse
// skyline query (Pr(u) >= alpha) against others.
func IsAnswer(u *uncertain.Object, q geom.Point, alpha float64, others []*uncertain.Object) bool {
	return GEq(PrReverseSkyline(u, q, others), alpha)
}
