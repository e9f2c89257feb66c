package geom

import "math"

// DynDominates reports whether a dynamically dominates b with respect to the
// reference point ref, written a ≺_ref b in the paper: on every dimension
// |a[i]−ref[i]| <= |b[i]−ref[i]|, with strict inequality on at least one
// dimension (Papadias et al.'s dominance transported into the coordinate
// frame of ref; smaller absolute deviation is better).
func DynDominates(a, b, ref Point) bool {
	checkDims(len(a), len(ref))
	checkDims(len(b), len(ref))
	strict := false
	for i := range ref {
		da := math.Abs(a[i] - ref[i])
		db := math.Abs(b[i] - ref[i])
		if da > db {
			return false
		}
		if da < db {
			strict = true
		}
	}
	return strict
}

// Dominates reports classic (static) skyline dominance with minimization
// semantics: a <= b on every dimension and a < b on at least one.
func Dominates(a, b Point) bool {
	checkDims(len(a), len(b))
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// DomRect returns the hyper-rectangle centered at center whose per-dimension
// extent equals the coordinate-wise distance |q[i]−center[i]| to the query
// object q (Lemma 2 of the paper). Any point strictly inside this rectangle
// dynamically dominates q w.r.t. center; boundary points need the strictness
// check performed by DynDominates.
//
// The rectangle is built from its two opposite corners q and 2·center−q
// rather than center±extent, so that q and center are contained exactly
// even under floating-point rounding.
func DomRect(center, q Point) Rect {
	r := Rect{Min: make(Point, len(q)), Max: make(Point, len(q))}
	DomRectInto(r, center, q)
	return r
}

// DomRectInto writes DomRect(center, q) into dst, whose Min and Max must
// hold len(q) coordinates — the allocation-free form for callers that keep
// rectangles in reused scratch. The result is bit-identical to DomRect.
func DomRectInto(dst Rect, center, q Point) {
	checkDims(len(center), len(q))
	checkDims(len(dst.Min), len(q))
	checkDims(len(dst.Max), len(q))
	for i := range q {
		mirror := 2*center[i] - q[i]
		dst.Min[i] = math.Min(q[i], mirror)
		dst.Max[i] = math.Max(q[i], mirror)
	}
}

// DomRects builds the dominance rectangle list ("RecList" in Algorithm 1)
// for a set of sample points of an uncertain object against q.
func DomRects(samples []Point, q Point) []Rect {
	recs := make([]Rect, len(samples))
	for i, s := range samples {
		recs[i] = DomRect(s, q)
	}
	return recs
}

// boundaryPad is the relative padding used to reconcile the dominance
// predicate with rectangle containment under floating-point rounding: the
// two are computed along different float paths and can disagree by an ULP
// exactly on the rectangle boundary.
const boundaryPad = 1e-12

// DomRectOuter returns DomRect padded outward by a relative epsilon. Filter
// windows use it so that every point satisfying DynDominates is guaranteed
// to fall inside the window; exactness is restored by the dominance check
// on the filtered candidates.
func DomRectOuter(center, q Point) Rect {
	r := Rect{Min: make(Point, len(q)), Max: make(Point, len(q))}
	DomRectOuterInto(r, center, q)
	return r
}

// DomRectOuterInto writes DomRectOuter(center, q) into dst, like
// DomRectInto; the result is bit-identical to DomRectOuter.
func DomRectOuterInto(dst Rect, center, q Point) {
	DomRectInto(dst, center, q)
	for i := range dst.Min {
		eps := boundaryPad * (1 + math.Abs(dst.Min[i]) + math.Abs(dst.Max[i]))
		dst.Min[i] -= eps
		dst.Max[i] += eps
	}
}

// DomRectUnionOuter bounds the union of the dominance rectangles of every
// anchor inside region: since DomRect(a, q) spans the corners q and 2a−q,
// and the mirror 2a−q ranges over the rectangle 2·region−q as a ranges over
// region, the union is contained in the bounding box of q and that mirrored
// rectangle. The result is padded outward like DomRectOuter. This is the
// node-level window of the batch candidate filter: an object can dominate q
// w.r.t. some anchor in region only if its MBR intersects this box, and the
// bound is monotone (region ⊆ region' ⇒ window ⊆ window'), which makes it
// safe for branch-and-bound descent over R-tree node MBRs.
func DomRectUnionOuter(region Rect, q Point) Rect {
	w := Rect{Min: make(Point, len(q)), Max: make(Point, len(q))}
	DomRectUnionOuterInto(w, region, q)
	return w
}

// DomRectUnionOuterInto writes DomRectUnionOuter(region, q) into dst, like
// DomRectInto: the batch join evaluates one window per (left entry, query)
// into its own scratch. The result is bit-identical to
// DomRectUnionOuter.
func DomRectUnionOuterInto(dst, region Rect, q Point) {
	checkDims(len(region.Min), len(q))
	checkDims(len(dst.Min), len(q))
	checkDims(len(dst.Max), len(q))
	for i := range q {
		lo := 2*region.Min[i] - q[i]
		hi := 2*region.Max[i] - q[i]
		min := math.Min(q[i], lo)
		max := math.Max(q[i], hi)
		// Each side is padded relative to its own magnitude only:
		// x − pad(|x|) and x + pad(|x|) are monotone in x, which keeps
		// the whole construction monotone under region growth (a pad
		// derived from the opposite side could shrink while the window
		// grows and break containment by an ULP-scale sliver).
		dst.Min[i] = min - boundaryPad*(1+math.Abs(min))
		dst.Max[i] = max + boundaryPad*(1+math.Abs(max))
	}
}

// DomRectInner returns DomRect shrunk inward by a relative epsilon (never
// collapsing past the center). Soundness-critical containment tests — e.g.
// the pdf-model Γ1 rectangle, where a false positive would wrongly force an
// object into every contingency set — use it as the conservative direction.
func DomRectInner(center, q Point) Rect {
	r := DomRect(center, q)
	for i := range r.Min {
		eps := boundaryPad * (1 + math.Abs(r.Min[i]) + math.Abs(r.Max[i]))
		half := (r.Max[i] - r.Min[i]) / 2
		if eps > half {
			eps = half
		}
		r.Min[i] += eps
		r.Max[i] -= eps
	}
	return r
}
