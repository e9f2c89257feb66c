package geom

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned hyper-rectangle given by its lower-left (Min) and
// upper-right (Max) corners. A Rect is valid when both corners have the same
// dimensionality and Min[i] <= Max[i] on every axis; a point is represented
// as a degenerate rectangle with Min == Max.
type Rect struct {
	Min, Max Point
}

// NewRect builds a Rect from two corner points, normalizing the coordinate
// order so the result is valid regardless of the corner order passed in.
func NewRect(a, b Point) Rect {
	checkDims(len(a), len(b))
	min := make(Point, len(a))
	max := make(Point, len(a))
	for i := range a {
		min[i] = math.Min(a[i], b[i])
		max[i] = math.Max(a[i], b[i])
	}
	return Rect{Min: min, Max: max}
}

// PointRect returns the degenerate rectangle covering exactly p.
func PointRect(p Point) Rect {
	return Rect{Min: p.Clone(), Max: p.Clone()}
}

// Dims reports the dimensionality of r.
func (r Rect) Dims() int { return len(r.Min) }

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	return Rect{Min: r.Min.Clone(), Max: r.Max.Clone()}
}

// Valid reports whether r has matching dimensionalities, finite bounds, and
// Min <= Max on every axis.
func (r Rect) Valid() bool {
	if len(r.Min) != len(r.Max) || len(r.Min) == 0 {
		return false
	}
	if !r.Min.IsFinite() || !r.Max.IsFinite() {
		return false
	}
	for i := range r.Min {
		if r.Min[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	c := make(Point, len(r.Min))
	for i := range r.Min {
		c[i] = (r.Min[i] + r.Max[i]) / 2
	}
	return c
}

// Side returns the extent of r along dimension i.
func (r Rect) Side(i int) float64 { return r.Max[i] - r.Min[i] }

// Volume returns the D-dimensional volume (area in 2-D) of r.
func (r Rect) Volume() float64 {
	v := 1.0
	for i := range r.Min {
		v *= r.Max[i] - r.Min[i]
	}
	return v
}

// Margin returns the sum of edge lengths of r (the R*-tree margin metric).
func (r Rect) Margin() float64 {
	var m float64
	for i := range r.Min {
		m += r.Max[i] - r.Min[i]
	}
	return m
}

// ContainsPoint reports whether p lies inside r (boundaries included).
func (r Rect) ContainsPoint(p Point) bool {
	checkDims(len(r.Min), len(p))
	for i := range p {
		if p[i] < r.Min[i] || p[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	checkDims(len(r.Min), len(s.Min))
	for i := range r.Min {
		if s.Min[i] < r.Min[i] || s.Max[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Intersects reports whether r and s share at least one point
// (touching boundaries count as intersecting).
func (r Rect) Intersects(s Rect) bool {
	checkDims(len(r.Min), len(s.Min))
	for i := range r.Min {
		if s.Max[i] < r.Min[i] || s.Min[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// Union returns the minimum bounding rectangle of r and s.
func (r Rect) Union(s Rect) Rect {
	checkDims(len(r.Min), len(s.Min))
	min := make(Point, len(r.Min))
	max := make(Point, len(r.Min))
	for i := range r.Min {
		min[i] = math.Min(r.Min[i], s.Min[i])
		max[i] = math.Max(r.Max[i], s.Max[i])
	}
	return Rect{Min: min, Max: max}
}

// ExpandToPoint grows r in place so that it covers p.
func (r *Rect) ExpandToPoint(p Point) {
	checkDims(len(r.Min), len(p))
	for i := range p {
		if p[i] < r.Min[i] {
			r.Min[i] = p[i]
		}
		if p[i] > r.Max[i] {
			r.Max[i] = p[i]
		}
	}
}

// ExpandToRect grows r in place so that it covers s.
func (r *Rect) ExpandToRect(s Rect) {
	checkDims(len(r.Min), len(s.Min))
	for i := range r.Min {
		if s.Min[i] < r.Min[i] {
			r.Min[i] = s.Min[i]
		}
		if s.Max[i] > r.Max[i] {
			r.Max[i] = s.Max[i]
		}
	}
}

// Enlargement returns the volume increase of r required to cover s.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Volume() - r.Volume()
}

// OverlapVolume returns the volume of r ∩ s (0 when disjoint).
func (r Rect) OverlapVolume(s Rect) float64 {
	v := 1.0
	for i := range r.Min {
		lo := math.Max(r.Min[i], s.Min[i])
		hi := math.Min(r.Max[i], s.Max[i])
		if hi <= lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// FarthestCorner returns the corner of r with the maximum per-dimension
// distance from p. Within a single sub-quadrant of p this is the point of r
// farthest from p on every axis simultaneously.
func (r Rect) FarthestCorner(p Point) Point {
	checkDims(len(r.Min), len(p))
	c := make(Point, len(p))
	for i := range p {
		if math.Abs(r.Min[i]-p[i]) >= math.Abs(r.Max[i]-p[i]) {
			c[i] = r.Min[i]
		} else {
			c[i] = r.Max[i]
		}
	}
	return c
}

// NearestCorner returns the corner of r with the minimum per-dimension
// distance from p.
func (r Rect) NearestCorner(p Point) Point {
	checkDims(len(r.Min), len(p))
	c := make(Point, len(p))
	for i := range p {
		if math.Abs(r.Min[i]-p[i]) <= math.Abs(r.Max[i]-p[i]) {
			c[i] = r.Min[i]
		} else {
			c[i] = r.Max[i]
		}
	}
	return c
}

// String renders r as "[min; max]".
func (r Rect) String() string {
	return fmt.Sprintf("[%v; %v]", r.Min, r.Max)
}
