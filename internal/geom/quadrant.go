package geom

// Quadrant identifies one of the 2^D sub-quadrants ("sub-quadrates" in the
// paper) of the data space induced by a query object q: bit i is set when
// the sub-quadrant lies on the side with coordinates >= q[i] along
// dimension i.
type Quadrant uint32

// MaxQuadrantDims bounds the dimensionality supported by the Quadrant bit
// encoding. Far beyond the paper's 2–5 dimensional workloads.
const MaxQuadrantDims = 30

// QuadrantPiece is a fragment of a rectangle clipped to one sub-quadrant
// of the query object.
type QuadrantPiece struct {
	Quad Quadrant
	Rect Rect
}

// SplitByQuadrants clips r against the 2^D sub-quadrants induced by q and
// returns every non-empty piece. A rectangle fully inside one sub-quadrant
// yields a single piece equal to itself. Pieces are closed rectangles, so
// adjacent pieces share their boundary on the splitting hyperplanes; this
// is harmless for the dominance-rectangle constructions that consume them.
func SplitByQuadrants(r Rect, q Point) []QuadrantPiece {
	d := r.Dims()
	checkDims(d, len(q))
	if d > MaxQuadrantDims {
		panic("geom: dimensionality too high for quadrant decomposition")
	}
	pieces := []QuadrantPiece{{Quad: 0, Rect: r.Clone()}}
	for i := 0; i < d; i++ {
		split := q[i]
		next := pieces[:0:0]
		for _, pc := range pieces {
			switch {
			case pc.Rect.Max[i] <= split:
				// Entirely on the lower side.
				next = append(next, pc)
			case pc.Rect.Min[i] >= split:
				pc.Quad |= 1 << uint(i)
				next = append(next, pc)
			default:
				lo := pc.Rect.Clone()
				lo.Max[i] = split
				hi := pc.Rect.Clone()
				hi.Min[i] = split
				next = append(next,
					QuadrantPiece{Quad: pc.Quad, Rect: lo},
					QuadrantPiece{Quad: pc.Quad | 1<<uint(i), Rect: hi},
				)
			}
		}
		pieces = next
	}
	return pieces
}

// InSingleQuadrant reports whether r lies entirely inside one sub-quadrant
// of q (needed for the pdf-model Γ1 test: objects straddling a splitting
// hyperplane cannot form the "nearest corner" rectangle, cf. Fig. 4 of the
// paper).
func InSingleQuadrant(r Rect, q Point) bool {
	checkDims(r.Dims(), len(q))
	for i := range q {
		if r.Min[i] < q[i] && r.Max[i] > q[i] {
			return false
		}
	}
	return true
}
