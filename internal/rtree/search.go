package rtree

import "github.com/crsky/crsky/internal/geom"

// Visitor receives a matching data entry. Returning false stops the search.
type Visitor func(id int, r geom.Rect) bool

// Search visits every data entry whose rectangle intersects window and
// returns the node accesses of the traversal.
func (t *Tree) Search(window geom.Rect, visit Visitor) int64 {
	return t.SearchAny([]geom.Rect{window}, visit)
}

// SearchAny visits every data entry whose rectangle intersects at least one
// of the windows, descending a subtree when its MBR crosses any window, and
// returns the node accesses of the traversal (one per visited node).
// This is the multi-window "RecList" traversal of Algorithm 1 (lines 2–8):
// a single branch-and-bound pass over the R-tree regardless of how many
// dominance rectangles the non-answer's samples induce. Entries
// intersecting several windows are reported once.
func (t *Tree) SearchAny(windows []geom.Rect, visit Visitor) int64 {
	for _, w := range windows {
		t.checkRect(w)
	}
	if t.size == 0 || len(windows) == 0 {
		return 0
	}
	// Pre-test entries against the windows' bounding box: a rectangle
	// disjoint from the union box intersects no window, so the common
	// reject case costs one test instead of len(windows). The descent
	// decision itself is unchanged (the per-window check still gates it),
	// hence node accesses are identical with and without the pre-test.
	var union geom.Rect
	if len(windows) > 1 {
		union = windows[0].Clone()
		for _, w := range windows[1:] {
			union.ExpandToRect(w)
		}
	}
	var accesses int64
	t.searchAny(t.root, windows, union, visit, &accesses)
	return accesses
}

func (t *Tree) searchAny(n *node, windows []geom.Rect, union geom.Rect, visit Visitor, accesses *int64) bool {
	*accesses++
	for i := range n.entries {
		e := &n.entries[i]
		if union.Min != nil && !e.rect.Intersects(union) {
			continue
		}
		if !intersectsAny(e.rect, windows) {
			continue
		}
		if n.leaf {
			if !visit(e.id, e.rect) {
				return false
			}
		} else if !t.searchAny(e.child, windows, union, visit, accesses) {
			return false
		}
	}
	return true
}

func intersectsAny(r geom.Rect, windows []geom.Rect) bool {
	for i := range windows {
		if r.Intersects(windows[i]) {
			return true
		}
	}
	return false
}
