package skyline

import (
	"context"
	"math"
	"sort"

	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/rtree"
)

// BBRSStats is the effort of one ReverseSkylineBBRSBatch call.
type BBRSStats struct {
	// NodeAccesses counts the distinct R-tree nodes the traversals read (a
	// node read by several of the batch's queries counts once) plus the
	// node accesses of every verification window query.
	NodeAccesses int64
	// Candidates counts the traversal survivors that took a verification
	// window query, summed over the queries.
	Candidates int
}

// ReverseSkylineBBRSBatch computes the reverse skyline of every query
// point with a BBRS-style branch-and-bound algorithm (Dellis & Seeger,
// VLDB 2007): per query, one best-first traversal of the R-tree collects a
// small superset of its reverse skyline — the quadrant-aware global
// skyline candidates — pruning every subtree that is provably dominated,
// and a verification window query per candidate finishes the job. Results
// are identical to testing every point with Member; the traversal just
// touches far fewer nodes on large datasets.
//
// Pruning rule: a subtree confined to a single sub-quadrant of q can be
// discarded once some candidate s dynamically dominates q with respect to
// the subtree's nearest corner — by the nesting of dominance rectangles
// along a quadrant, s then dominates q w.r.t. every point of the subtree.
// The rule is sound in any order and candidates only grow, so, as in BBS,
// an entry is tested when it is pushed and again, against the candidates
// found since, when it is popped: a node that a later candidate prunes is
// never read, and a point it prunes would have been pruned at its own pop.
//
// The queries run one after another over the same scratch, in ascending
// order: each query's traversal, then its verification, then emit
// (optional), which observes every result exactly once. ctx is checked
// before each query; once it is done the call returns the prefix computed
// so far, the effort spent on it, and ctx.Err(). A node that several of
// the batch's traversals read is charged once; every traversal reads the
// root, so a batch of two or more on a non-empty index charges strictly
// fewer node accesses than its queries run one by one.
func (ix *Index) ReverseSkylineBBRSBatch(ctx context.Context, qs []geom.Point, emit func(k int, ids []int)) (out [][]int, st BBRSStats, err error) {
	for _, q := range qs {
		if q.Dims() != ix.dims {
			panic("skyline: query dimensionality mismatch")
		}
	}
	out = make([][]int, len(qs))
	root, nonEmpty := ix.tree.RootHandle()
	s := bbrsScan{dq: make([]float64, ix.dims), near: make(geom.Point, ix.dims)}
	if len(qs) > 1 {
		s.read = make(map[rtree.NodeHandle]struct{})
	}
	for k, q := range qs {
		if err := ctx.Err(); err != nil {
			return out, st, err
		}
		if nonEmpty {
			st.NodeAccesses += s.traverse(root, q)
		}
		// Verification: global-skyline candidacy is necessary but not
		// sufficient, so each survivor still takes the exact window-query
		// membership test.
		var ids []int
		for _, c := range s.cands {
			member, n := ix.Member(c, q)
			st.NodeAccesses += n
			if member {
				ids = append(ids, c)
			}
		}
		st.Candidates += len(s.cands)
		sort.Ints(ids)
		out[k] = ids
		if emit != nil {
			emit(k, ids)
		}
	}
	return out, st, nil
}

// bbrsScan is the scratch the batch's traversals share: the frontier heap,
// the current query's candidates, the per-entry test buffers, and (for a
// batch of two or more) the set of nodes already charged.
type bbrsScan struct {
	heap   []bbrsItem
	cands  []int     // candidate IDs, in discovery order
	coords []float64 // their coordinates, Dims() per candidate
	dq     []float64 // |q − x| per axis for the point x under test
	near   geom.Point
	read   map[rtree.NodeHandle]struct{}
}

// bbrsItem is a frontier entry: a subtree (node, with the entry rectangle
// it was pushed with; the root has none) or a data point (id ≥ 0, its
// rectangle the degenerate PointRect). tested is how many candidates the
// entry was tested against when pushed.
type bbrsItem struct {
	key    float64
	rect   geom.Rect
	node   rtree.NodeHandle
	id     int
	tested int
}

// traverse runs the best-first traversal for q from root, leaving q's
// candidates in s.cands, and returns the node reads it charged.
// Traversal order is by transformed L1 distance: points close to q in the
// |x−q| space dominate the most, so visiting them first maximizes pruning.
func (s *bbrsScan) traverse(root rtree.NodeHandle, q geom.Point) int64 {
	s.heap = s.heap[:0]
	s.cands = s.cands[:0]
	s.coords = s.coords[:0]
	var reads int64
	s.push(bbrsItem{node: root, id: -1})
	for len(s.heap) > 0 {
		it := s.pop()
		if it.id >= 0 {
			if p := it.rect.Min; !s.dominated(q, p, it.tested) {
				s.cands = append(s.cands, it.id)
				s.coords = append(s.coords, p...)
			}
			continue
		}
		if it.rect.Min != nil && it.tested < len(s.cands) && s.nearestCorner(it.rect, q) &&
			s.dominated(q, s.near, it.tested) {
			continue
		}
		if s.charge(it.node) {
			reads++
		}
		n := it.node
		tested := len(s.cands)
		if n.IsLeaf() {
			// Leaf entries are points: no quadrant test, no corner.
			for i := 0; i < n.NumEntries(); i++ {
				r := n.EntryRect(i)
				if !s.dominated(q, r.Min, 0) {
					s.push(bbrsItem{key: transformedL1(r, q), rect: r, id: n.EntryID(i), tested: tested})
				}
			}
			continue
		}
		for i := 0; i < n.NumEntries(); i++ {
			r := n.EntryRect(i)
			if s.nearestCorner(r, q) && s.dominated(q, s.near, 0) {
				continue
			}
			s.push(bbrsItem{key: transformedL1(r, q), rect: r, node: n.EntryChild(i), id: -1, tested: tested})
		}
	}
	return reads
}

// charge reports whether reading n is a node access to count: always in a
// batch of one, the first read of n only in a larger batch.
func (s *bbrsScan) charge(n rtree.NodeHandle) bool {
	if s.read == nil {
		return true
	}
	if _, seen := s.read[n]; seen {
		return false
	}
	s.read[n] = struct{}{}
	return true
}

// nearestCorner writes r.NearestCorner(q) into s.near and reports whether
// r lies in a single sub-quadrant of q (geom.InSingleQuadrant): only then
// does a dominator of q w.r.t. the corner dominate q w.r.t. all of r.
// Like dominated, it skips geom's per-call dimension checks: NewIndex and
// Insert check every point, and ReverseSkylineBBRSBatch every query.
func (s *bbrsScan) nearestCorner(r geom.Rect, q geom.Point) bool {
	single := true
	for j, qj := range q {
		lo, hi := r.Min[j], r.Max[j]
		if lo < qj && hi > qj {
			single = false
		}
		if math.Abs(lo-qj) <= math.Abs(hi-qj) {
			s.near[j] = lo
		} else {
			s.near[j] = hi
		}
	}
	return single
}

// dominated reports whether a candidate from the from-th on dynamically
// dominates q with respect to x: geom.DynDominates(c, q, x), with |q − x|
// computed once for all of them.
func (s *bbrsScan) dominated(q, x geom.Point, from int) bool {
	d := len(q)
	if from*d >= len(s.coords) {
		return false
	}
	for j := range q {
		s.dq[j] = math.Abs(q[j] - x[j])
	}
next:
	for c := s.coords[from*d:]; len(c) > 0; c = c[d:] {
		strict := false
		for j, dqj := range s.dq {
			dc := math.Abs(c[j] - x[j])
			if dc > dqj {
				continue next
			}
			strict = strict || dc < dqj
		}
		if strict {
			return true
		}
	}
	return false
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

// push and pop keep s.heap a binary min-heap on key, by value (the
// container/heap algorithm without its interface boxing).
func (s *bbrsScan) push(it bbrsItem) {
	s.heap = append(s.heap, it)
	h := s.heap
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].key < h[i].key) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (s *bbrsScan) pop() bbrsItem {
	h := s.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].key < h[j].key {
			j = j2
		}
		if !(h[j].key < h[i].key) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	s.heap = h[:n]
	return h[n]
}
