package skyline

import (
	"fmt"

	"github.com/crsky/crsky/internal/geom"
)

// Insert adds a point to the index and returns its new index — reverse
// skylines over slowly changing data (the data-stream setting of the
// paper's related work) re-query instead of rebuilding.
func (ix *Index) Insert(p geom.Point) int {
	if p.Dims() != ix.dims {
		panic("skyline: point dimensionality mismatch")
	}
	id := len(ix.pts)
	ix.pts = append(ix.pts, p.Clone())
	ix.tree.Insert(geom.PointRect(p), id)
	return id
}

// Delete removes the point with the given index. The slot becomes a
// tombstone: its index is never reused, queries skip it, and membership
// tests against it fail with an error from the callers that check Deleted.
func (ix *Index) Delete(i int) error {
	if i < 0 || i >= len(ix.pts) {
		return fmt.Errorf("skyline: index %d out of range", i)
	}
	if ix.pts[i] == nil {
		return fmt.Errorf("skyline: point %d already deleted", i)
	}
	if !ix.tree.Delete(geom.PointRect(ix.pts[i]), i) {
		return fmt.Errorf("skyline: point %d missing from the index", i)
	}
	ix.pts[i] = nil
	return nil
}

// CloneCOW returns a copy-on-write clone: the point slice is copied
// shallowly (points themselves are immutable) and the R-tree shares nodes
// until either side mutates, so readers of the original index never see
// the clone's inserts or deletes.
func (ix *Index) CloneCOW() *Index {
	pts := make([]geom.Point, len(ix.pts))
	copy(pts, ix.pts)
	return &Index{pts: pts, dims: ix.dims, tree: ix.tree.CloneCOW()}
}

// Deleted reports whether slot i is a tombstone.
func (ix *Index) Deleted(i int) bool {
	return i >= 0 && i < len(ix.pts) && ix.pts[i] == nil
}

// Live returns the number of non-deleted points.
func (ix *Index) Live() int { return ix.tree.Len() }
