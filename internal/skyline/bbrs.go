package skyline

import (
	"container/heap"
	"sort"

	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/rtree"
)

// ReverseSkylineBBRSBatch computes the reverse skyline of every query
// point with a BBRS-style branch-and-bound algorithm (Dellis & Seeger,
// VLDB 2007): ONE best-first traversal of the R-tree collects, per query, a
// small superset of its reverse skyline — the quadrant-aware global
// skyline candidates — pruning every subtree that is provably dominated,
// and a verification window query per candidate finishes the job. Results
// are identical to testing every point with Member; the traversal just
// touches far fewer nodes on large datasets.
//
// Pruning rule: a subtree confined to a single sub-quadrant of q can be
// discarded once some already-found candidate s of that query dynamically
// dominates q with respect to the subtree's nearest corner — by the
// nesting of dominance rectangles along a quadrant, s then dominates q
// w.r.t. every point of the subtree. The rule is sound in any traversal
// order, so the queries share the frontier: each heap item carries the
// queries for which its subtree is still unpruned, a popped node counts as
// one access however many queries needed it, and a subtree is descended
// only while at least one query keeps it alive.
//
// After the shared traversal each query's candidates are verified in
// ascending query order; emit (optional) observes every result exactly
// once, in that order, as soon as its verification finishes. Returning
// false from emit abandons the remaining queries: the call returns the
// prefix computed so far with done=false. accesses counts the popped nodes
// plus the node accesses of every verification window query run.
func (ix *Index) ReverseSkylineBBRSBatch(qs []geom.Point, emit func(k int, ids []int) bool) (out [][]int, accesses int64, done bool) {
	for _, q := range qs {
		if q.Dims() != ix.dims {
			panic("skyline: query dimensionality mismatch")
		}
	}
	out = make([][]int, len(qs))
	candidates := make([][]int, len(qs))

	// Per-query pruning: each query prunes against its OWN candidate set —
	// candidates certify non-membership only for the query they were
	// collected under.
	prunedRect := func(k int, r geom.Rect) bool {
		q := qs[k]
		if !geom.InSingleQuadrant(r, q) {
			return false
		}
		near := r.NearestCorner(q)
		for _, c := range candidates[k] {
			if geom.DynDominates(ix.Point(c), q, near) {
				return true
			}
		}
		return false
	}
	prunedPoint := func(k int, p geom.Point) bool {
		q := qs[k]
		for _, c := range candidates[k] {
			if geom.DynDominates(ix.Point(c), q, p) {
				return true
			}
		}
		return false
	}

	// Best-first traversal by transformed L1 distance: points close to q
	// in the |x−q| space dominate the most, so visiting them first
	// maximizes pruning.
	if root, ok := ix.tree.RootHandle(); ok && len(qs) > 0 {
		all := make([]int, len(qs))
		for k := range all {
			all[k] = k
		}
		h := &bbrsBatchHeap{}
		heap.Push(h, bbrsBatchItem{key: 0, node: &root, active: all})
		var surviving []int // scratch, reused across entries
		for h.Len() > 0 {
			it := heap.Pop(h).(bbrsBatchItem)
			if it.node != nil {
				n := *it.node
				// Union access accounting: the node is read once, however
				// many queries' frontiers it sits on.
				accesses++
				for i := 0; i < n.NumEntries(); i++ {
					r := n.EntryRect(i)
					surviving = surviving[:0]
					key := 0.0
					for _, k := range it.active {
						if prunedRect(k, r) {
							continue
						}
						if d := transformedL1(r, qs[k]); len(surviving) == 0 || d < key {
							key = d
						}
						surviving = append(surviving, k)
					}
					if len(surviving) == 0 {
						continue
					}
					// Query lists are never mutated, so an entry every live
					// query keeps (always, in a batch of one) shares its
					// parent's list; only partially pruned entries copy.
					active := it.active
					if len(surviving) < len(active) {
						active = append([]int(nil), surviving...)
					}
					// The traversal key is the best key any live query gives
					// the entry: the shared frontier stays best-first for
					// whichever query would reach it soonest, so near-q
					// points keep arriving early enough to prune for
					// everyone.
					child := bbrsBatchItem{key: key, active: active}
					if n.IsLeaf() {
						child.id = n.EntryID(i)
					} else {
						c := n.EntryChild(i)
						child.node = &c
					}
					heap.Push(h, child)
				}
				continue
			}
			for _, k := range it.active {
				if !prunedPoint(k, ix.Point(it.id)) {
					candidates[k] = append(candidates[k], it.id)
				}
			}
		}
	}

	// Verification: global-skyline candidacy is necessary but not
	// sufficient, so each survivor still takes the exact window-query
	// membership test. Streamed in request order.
	for k := range qs {
		var ids []int
		for _, c := range candidates[k] {
			member, n := ix.Member(c, qs[k])
			accesses += n
			if member {
				ids = append(ids, c)
			}
		}
		sort.Ints(ids)
		out[k] = ids
		if emit != nil && !emit(k, ids) {
			return out, accesses, false
		}
	}
	return out, accesses, true
}

// transformedL1 is the minimal Σ_j |x_j − q_j| over x in r — the BBS
// traversal key in the transformed space.
func transformedL1(r geom.Rect, q geom.Point) float64 {
	var sum float64
	for j := range q {
		switch {
		case q[j] < r.Min[j]:
			sum += r.Min[j] - q[j]
		case q[j] > r.Max[j]:
			sum += q[j] - r.Max[j]
		}
	}
	return sum
}

// bbrsBatchItem is a frontier entry: a subtree (node set) or a data point
// (id), with the queries that still keep it alive.
type bbrsBatchItem struct {
	key    float64
	node   *rtree.NodeHandle
	id     int
	active []int
}

type bbrsBatchHeap []bbrsBatchItem

func (h bbrsBatchHeap) Len() int           { return len(h) }
func (h bbrsBatchHeap) Less(i, j int) bool { return h[i].key < h[j].key }
func (h bbrsBatchHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *bbrsBatchHeap) Push(x any)        { *h = append(*h, x.(bbrsBatchItem)) }
func (h *bbrsBatchHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
