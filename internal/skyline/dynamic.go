package skyline

import (
	"fmt"
	"slices"

	"github.com/crsky/crsky/internal/geom"
)

// Insert adds a point to the index and returns its new index — reverse
// skylines over slowly changing data (the data-stream setting of the
// paper's related work) re-query instead of rebuilding. It copies the last
// chunk (or opens a new one) and never writes to a chunk in place.
func (ix *Index) Insert(p geom.Point) int {
	if p.Dims() != ix.dims {
		panic("skyline: point dimensionality mismatch")
	}
	id := ix.n
	c := id >> chunkBits
	if c == len(ix.chunks) {
		ix.chunks = append(ix.chunks, nil)
	}
	old := ix.chunks[c]
	chunk := make([]geom.Point, len(old)+1)
	copy(chunk, old)
	chunk[len(old)] = p.Clone()
	ix.chunks[c] = chunk
	ix.n++
	ix.tree.Insert(geom.PointRect(p), id)
	return id
}

// Delete removes the point with the given index. The slot becomes a
// tombstone: its index is never reused, queries skip it, and membership
// tests against it fail with an error from the callers that check Deleted.
// It copies the slot's chunk and never writes to a chunk in place.
func (ix *Index) Delete(i int) error {
	if i < 0 || i >= ix.n {
		return fmt.Errorf("skyline: index %d out of range", i)
	}
	p := ix.Point(i)
	if p == nil {
		return fmt.Errorf("skyline: point %d already deleted", i)
	}
	if !ix.tree.Delete(geom.PointRect(p), i) {
		return fmt.Errorf("skyline: point %d missing from the index", i)
	}
	c := i >> chunkBits
	chunk := slices.Clone(ix.chunks[c])
	chunk[i&(chunkSize-1)] = nil
	ix.chunks[c] = chunk
	return nil
}

// CloneCOW returns a copy-on-write clone in O(n / chunkSize): it copies the
// chunk spine, shares every chunk (writes copy theirs first), and shares
// the R-tree's nodes until either side mutates, so readers of the original
// index never see the clone's inserts or deletes.
func (ix *Index) CloneCOW() *Index {
	return &Index{chunks: slices.Clone(ix.chunks), n: ix.n, dims: ix.dims, tree: ix.tree.CloneCOW()}
}

// Deleted reports whether slot i is a tombstone.
func (ix *Index) Deleted(i int) bool {
	return i >= 0 && i < ix.n && ix.Point(i) == nil
}

// Live returns the number of non-deleted points.
func (ix *Index) Live() int { return ix.tree.Len() }
