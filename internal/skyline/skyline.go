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
// members nor dominators, so an index's points (Point(i) for i < Len())
// can be passed as is.
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

// chunkBits sets the copy-on-write granularity of an Index's points: they
// live in chunks of chunkSize, and a write copies the one chunk it touches.
const (
	chunkBits = 10
	chunkSize = 1 << chunkBits
)

// Index is an R-tree backed certain dataset supporting reverse skyline
// queries with node-access accounting. Point i is Point(i); a deleted
// point leaves a nil tombstone in its slot, and slots are never reused.
//
// The points are kept in fixed-size chunks behind a spine that each Index
// owns. A chunk is never written in place — it may be a window of the
// caller's NewIndex slice or shared with a CloneCOW clone — so Insert and
// Delete replace the chunk they write with a modified copy: a write copies
// one chunk, and a clone copies only the spine.
type Index struct {
	chunks [][]geom.Point // chunkSize points each; the last may be shorter
	n      int
	dims   int
	tree   *rtree.Tree
}

// NewIndex bulk-loads an R-tree over the points. The index reads pts in
// place and never writes to it; do not mutate it afterwards.
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
	chunks := make([][]geom.Point, 0, (len(pts)+chunkSize-1)/chunkSize)
	for lo := 0; lo < len(pts); lo += chunkSize {
		hi := min(lo+chunkSize, len(pts))
		chunks = append(chunks, pts[lo:hi:hi])
	}
	return &Index{chunks: chunks, n: len(pts), dims: d, tree: t}
}

// Dims returns the index dimensionality.
func (ix *Index) Dims() int { return ix.dims }

// Tree exposes the underlying R-tree (for traversals that need it).
func (ix *Index) Tree() *rtree.Tree { return ix.tree }

// Point returns point i (0 ≤ i < Len()), or nil if it was deleted. The
// point is shared and read-only.
func (ix *Index) Point(i int) geom.Point {
	return ix.chunks[i>>chunkBits][i&(chunkSize-1)]
}

// Len returns the number of point slots, tombstones included.
func (ix *Index) Len() int { return ix.n }

// Member reports whether point i is a reverse skyline point of q (Lemma 7:
// no point dominates q w.r.t. it), with the node accesses of its one window
// query: Dominators's scan, stopped at the first dominator found. Deleted
// points are never members.
func (ix *Index) Member(i int, q geom.Point) (bool, int64) {
	if ix.Point(i) == nil {
		return false, 0
	}
	member := true
	accesses := ix.scanDominators(i, q, func(int) bool {
		member = false
		return false
	})
	return member, accesses
}

// Dominators returns the indices of all points that dynamically dominate q
// w.r.t. point i — exactly the candidate causes of Section 4 when point i is
// a non-reverse-skyline object (single window query, Lemma 1 restated for
// certain data) — and the node accesses of that window query.
func (ix *Index) Dominators(i int, q geom.Point) ([]int, int64) {
	var out []int
	accesses := ix.scanDominators(i, q, func(id int) bool {
		out = append(out, id)
		return true
	})
	return out, accesses
}

// scanDominators runs the window query on the dominance rectangle
// DomRect(Point(i), q) and calls emit with each point that dynamically
// dominates q w.r.t. point i; emit returning false stops the query. It
// returns the query's node accesses (0 for a deleted point).
func (ix *Index) scanDominators(i int, q geom.Point, emit func(id int) bool) int64 {
	p := ix.Point(i)
	if p == nil {
		return 0
	}
	return ix.tree.Search(geom.DomRectOuter(p, q), func(id int, _ geom.Rect) bool {
		return id == i || !geom.DynDominates(ix.Point(id), q, p) || emit(id)
	})
}
