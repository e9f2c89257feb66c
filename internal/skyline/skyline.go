// Package skyline implements the certain-data (reverse) skyline machinery
// the paper builds on: dynamic skylines (Papadias et al.), reverse skyline
// membership tests and full reverse skyline queries (Dellis & Seeger), both
// brute-force and R-tree accelerated.
package skyline

import (
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/rtree"
)

// DynamicSkyline returns the indices of the points of pts that belong to the
// dynamic skyline of ref: points not dynamically dominated w.r.t. ref by any
// other point of pts. Duplicate coordinates never dominate each other, so
// duplicates are all reported.
func DynamicSkyline(ref geom.Point, pts []geom.Point) []int {
	var out []int
	for i, p := range pts {
		dominated := false
		for j, p2 := range pts {
			if i == j {
				continue
			}
			if geom.DynDominates(p2, p, ref) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

// IsReverseSkylineMember reports whether p is a reverse skyline point of q
// given the other points: no o ∈ others dynamically dominates q w.r.t. p
// (Definition 3). Points equal to p should not be passed in others.
func IsReverseSkylineMember(p, q geom.Point, others []geom.Point) bool {
	for _, o := range others {
		if geom.DynDominates(o, q, p) {
			return false
		}
	}
	return true
}

// BruteReverseSkyline computes the reverse skyline of q over pts by direct
// pairwise testing — the quadratic reference implementation used as a test
// oracle and baseline. Nil entries are tombstones: they are neither
// members nor dominators, so an index's Points slice can be passed as is.
func BruteReverseSkyline(pts []geom.Point, q geom.Point) []int {
	var out []int
	for i, p := range pts {
		if p == nil {
			continue
		}
		member := true
		for j, o := range pts {
			if i == j || o == nil {
				continue
			}
			if geom.DynDominates(o, q, p) {
				member = false
				break
			}
		}
		if member {
			out = append(out, i)
		}
	}
	return out
}

// Index is an R-tree backed certain dataset supporting reverse skyline
// queries with node-access accounting. Deleted points leave nil tombstones
// in the Points slice; indexes are never reused.
type Index struct {
	pts  []geom.Point
	dims int
	tree *rtree.Tree
}

// NewIndex bulk-loads an R-tree over the points. The slice is retained; do
// not mutate it afterwards.
func NewIndex(pts []geom.Point, opts ...rtree.Option) *Index {
	if len(pts) == 0 {
		panic("skyline: empty point set")
	}
	d := pts[0].Dims()
	items := make([]rtree.Item, len(pts))
	for i, p := range pts {
		if p.Dims() != d {
			panic("skyline: mixed dimensionalities")
		}
		items[i] = rtree.Item{Rect: geom.PointRect(p), ID: i}
	}
	t := rtree.New(d, opts...)
	t.BulkLoad(items)
	return &Index{pts: pts, dims: d, tree: t}
}

// Dims returns the index dimensionality.
func (ix *Index) Dims() int { return ix.dims }

// Tree exposes the underlying R-tree (for traversals that need it).
func (ix *Index) Tree() *rtree.Tree { return ix.tree }

// Points returns the indexed points (shared, read-only).
func (ix *Index) Points() []geom.Point { return ix.pts }

// Len returns the number of indexed points.
func (ix *Index) Len() int { return len(ix.pts) }

// Member reports whether point i is a reverse skyline point of q (Lemma 7:
// no point dominates q w.r.t. it), with the node accesses of its one window
// query on the dominance rectangle DomRect(pts[i], q), which stops at the
// first dominator found. Deleted points are never members.
func (ix *Index) Member(i int, q geom.Point) (bool, int64) {
	p := ix.pts[i]
	if p == nil {
		return false, 0
	}
	window := geom.DomRectOuter(p, q)
	member := true
	accesses := ix.tree.Search(window, func(id int, _ geom.Rect) bool {
		if id == i {
			return true
		}
		if geom.DynDominates(ix.pts[id], q, p) {
			member = false
			return false
		}
		return true
	})
	return member, accesses
}

// Dominators returns the indices of all points that dynamically dominate q
// w.r.t. pts[i] — exactly the candidate causes of Section 4 when pts[i] is a
// non-reverse-skyline object (single window query, Lemma 1 restated for
// certain data) — and the node accesses of that window query.
func (ix *Index) Dominators(i int, q geom.Point) ([]int, int64) {
	p := ix.pts[i]
	if p == nil {
		return nil, 0
	}
	window := geom.DomRectOuter(p, q)
	var out []int
	accesses := ix.tree.Search(window, func(id int, _ geom.Rect) bool {
		if id != i && geom.DynDominates(ix.pts[id], q, p) {
			out = append(out, id)
		}
		return true
	})
	return out, accesses
}
