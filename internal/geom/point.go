// Package geom provides the geometric primitives used throughout crsky:
// D-dimensional points, axis-aligned hyper-rectangles, the dynamic-dominance
// relation that underlies (reverse) skyline semantics, and the sub-quadrant
// decomposition required by the continuous-pdf uncertain data model.
//
// All operations treat dimensionality mismatches as programmer errors and
// panic; datasets are validated at construction time so mismatches cannot
// arise from user input at query time.
package geom

import (
	"fmt"
	"math"
	"strings"
)

// Point is a D-dimensional point. The zero value (nil) has zero dimensions.
type Point []float64

// Dims reports the dimensionality of p.
func (p Point) Dims() int { return len(p) }

// Clone returns a deep copy of p.
func (p Point) Clone() Point {
	if p == nil {
		return nil
	}
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Add returns p + q as a new point.
func (p Point) Add(q Point) Point {
	checkDims(len(p), len(q))
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] + q[i]
	}
	return r
}

// Sub returns p − q as a new point.
func (p Point) Sub(q Point) Point {
	checkDims(len(p), len(q))
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] - q[i]
	}
	return r
}

// Scale returns p scaled by s as a new point.
func (p Point) Scale(s float64) Point {
	r := make(Point, len(p))
	for i := range p {
		r[i] = p[i] * s
	}
	return r
}

// Dist returns the Euclidean (L2) distance between p and q.
func (p Point) Dist(q Point) float64 {
	checkDims(len(p), len(q))
	var sum float64
	for i := range p {
		d := p[i] - q[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// IsFinite reports whether every coordinate of p is a finite number.
func (p Point) IsFinite() bool {
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// String renders p as "(x1, x2, ...)" with compact float formatting.
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range p {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%g", v)
	}
	b.WriteByte(')')
	return b.String()
}

func checkDims(a, b int) {
	if a != b {
		panic(fmt.Sprintf("geom: dimensionality mismatch (%d vs %d)", a, b))
	}
}
