package rtree

import (
	"context"

	"github.com/crsky/crsky/internal/ctxutil"
	"github.com/crsky/crsky/internal/geom"
)

// WindowFunc writes the (conservative) search window of the rectangle r
// into dst, whose Min and Max hold the tree's dimensionality. The join
// passes its own scratch as dst, so a window costs no allocation and the
// function must keep no state of its own: concurrent joins call it. For
// the branch-and-bound descent of JoinSelfStreamBatch to be correct the
// window must be monotone: r ⊆ s implies window(r) ⊆ window(s), so that a
// node-level window covers every window of the entries below it.
type WindowFunc func(dst, r geom.Rect)

// BatchStreamVisitor receives the self-join output of every query k,
// grouped by left entry. For each left data entry the streams of all
// queries are reported back to back — Begin(0)…End(0), Begin(1)…End(1),
// … — before the next left entry.
//
//   - Leaf, when set, is called once per (query, left leaf) before that
//     leaf's streams, with the leaf's box and a scratch rectangle core of
//     the tree's dimensionality. Returning nil streams the leaf as usual.
//     To arm the whole-leaf reject it writes a rectangle into core and
//     returns a cover predicate: the join then looks through the query's
//     partner leaves for a right entry whose rectangle lies strictly inside
//     core and for which cover(rightID) holds. If one exists, every entry
//     of the left leaf other than that cover is skipped for the query — no
//     Begin, Pair or End — and counted in JoinCounts.Skipped. The caller
//     picks core so that such a cover decides each of those entries alone.
//   - Begin is called once per (query, left data entry) not skipped by a
//     leaf cover; returning false skips that stream entirely (End is not
//     called).
//   - Pair is called for every right data entry whose rectangle intersects
//     window_k(left rectangle), excluding the left entry itself; returning
//     false ends this stream early (the join continues with the next
//     stream) — the hook that lets callers stop enumerating once a
//     per-object decision is already forced. Within a stream the pairs
//     come from the left leaf itself first, then from the other partner
//     leaves in partner-list order (see JoinSelfStreamBatch); callers must
//     not rely on any order beyond that.
//   - End is called after the (possibly truncated) stream.
type BatchStreamVisitor struct {
	Leaf  func(k int, leaf, core geom.Rect) (cover func(rightID int) bool)
	Begin func(k, leftID int, leftRect geom.Rect) bool
	Pair  func(k, leftID, rightID int, rightRect geom.Rect) bool
	End   func(k, leftID int)
}

// JoinCounts is the work of one JoinSelfStreamBatch call. Every count is
// deterministic: the same tree, windows and visitor verdicts give the same
// counts.
type JoinCounts struct {
	// NodeAccesses is the simulated I/O (see JoinSelfStreamBatch).
	NodeAccesses int64
	// EntriesScanned counts the rectangle tests the streams and the
	// leaf-cover searches make against a partner leaf's box or a right
	// entry: the join's CPU work, which node accesses do not show.
	EntriesScanned int64
	// Skipped counts the (query, left entry) streams a leaf cover skipped.
	Skipped int64
}

// JoinSelfStreamBatch reports, for every query k and every data entry a,
// the data entries b ≠ a whose rectangle intersects windows[k](a.rect) —
// the batch form of running one window search per (query, entry). Instead
// of independent root-to-leaf traversals it descends the tree once in
// left-major order, carrying for each left subtree and each query the list
// of right subtrees that can still contribute matches (the R-tree spatial
// join of Brinkhoff et al. specialised to a self-join with asymmetric
// window predicates). The left descent is shared by all queries; the right
// partner lists are pruned per query with that query's window. Every left
// entry is visited for every query, including entries with empty streams,
// unless a leaf cover skips it (see BatchStreamVisitor.Leaf). The visitor
// runs on the caller's goroutine.
//
// At a left leaf each stream scans the left leaf itself first, then the
// query's other partner leaves in list order. It tests each partner leaf's
// box against the left entry's own window before reading the leaf's
// entries: every entry lies inside its leaf's box, so a box that misses
// the window holds no match. A stream a caller stops at its first covering
// candidate then ends after a few rectangle tests. Before the streams, the
// visitor's Leaf hook may reject the whole leaf for a query (see
// BatchStreamVisitor); the cover search reads only partner leaves the join
// has already charged, so it costs no node access. The order within a
// stream is an optimisation, not a contract.
//
// The call returns its JoinCounts. Node accesses are one for each expanded
// left node plus one per distinct surviving right node — the union of the
// per-query partner lists, mirroring a join that pins the left page and
// streams each needed right page once for all queries. A single query
// costs exactly the classic single-window join; for Q > 1 queries the
// total is strictly below Q single-window joins, because the left-descent
// accesses alone shrink Q-fold.
//
// The join polls ctx with an amortized checker — one unit per visited
// node plus one per right node scanned for a (query, left entry) pair, so
// a large batch observes a deadline within one stride of rectangle scans
// — and returns the context's error with the counts made before it
// stopped.
func (t *Tree) JoinSelfStreamBatch(ctx context.Context, windows []WindowFunc, v BatchStreamVisitor) (JoinCounts, error) {
	if t.size == 0 || len(windows) == 0 {
		return JoinCounts{}, nil
	}
	j := &batchJoin{
		windows: windows,
		v:       v,
		poll:    ctxutil.NewPoll(ctx, ctxutil.DefaultStride),
		seen:    make(map[*node]struct{}, 64),
		win:     geom.Rect{Min: make(geom.Point, t.dims), Max: make(geom.Point, t.dims)},
		core:    geom.Rect{Min: make(geom.Point, t.dims), Max: make(geom.Point, t.dims)},
		covers:  make([]*entry, len(windows)),
	}
	// Subtrees travel as their parent entries, so each carries its box; the
	// root, which has no parent, gets a synthetic entry.
	root := &entry{rect: t.root.mbr(), child: t.root}
	rights := make([][]*entry, len(windows))
	for k := range rights {
		rights[k] = []*entry{root}
	}
	err := j.descend(root, rights)
	return j.counts, err
}

// batchJoin is the state of one JoinSelfStreamBatch call. Its scratch is
// reused across nodes, so no stream or entry test allocates: the seen set
// of the union-access accounting (cleared, capacity retained, between
// nodes), the window the current (entry, query) pair is tested against,
// the core a Leaf hook writes, and the per-query leaf covers. The
// WindowFuncs that write the window are shared by concurrent joins, so the
// window lives here, not in them.
type batchJoin struct {
	windows []WindowFunc
	v       BatchStreamVisitor
	poll    *ctxutil.Poll
	seen    map[*node]struct{}
	win     geom.Rect
	core    geom.Rect
	covers  []*entry // per query: the current left leaf's cover, or nil
	counts  JoinCounts
}

// intersects is geom.Rect.Intersects without its dimension check, so the
// join's hot loops inline it. Insert and BulkLoad check every stored
// rectangle's dimensionality, and the scratch rectangles are built with
// the tree's.
func intersects(r, s geom.Rect) bool {
	for i := range r.Min {
		if s.Max[i] < r.Min[i] || s.Min[i] > r.Max[i] {
			return false
		}
	}
	return true
}

// strictlyInside reports whether s lies strictly inside r on every axis.
func strictlyInside(s, r geom.Rect) bool {
	for i := range r.Min {
		if s.Min[i] <= r.Min[i] || s.Max[i] >= r.Max[i] {
			return false
		}
	}
	return true
}

// accessRights counts the left node once and every distinct right node
// of the per-query partner lists once — the union across queries,
// excluding the pinned left node itself. A single query's partner list
// holds no repeats, so it skips the seen set.
func (j *batchJoin) accessRights(nl *node, rights [][]*entry) {
	j.counts.NodeAccesses++
	if len(rights) == 1 {
		for _, er := range rights[0] {
			if er.child != nl {
				j.counts.NodeAccesses++
			}
		}
		return
	}
	clear(j.seen)
	j.seen[nl] = struct{}{}
	for _, rs := range rights {
		for _, er := range rs {
			if _, dup := j.seen[er.child]; !dup {
				j.seen[er.child] = struct{}{}
				j.counts.NodeAccesses++
			}
		}
	}
}

// descend is the recursion over the left subtree under el, whose per-query
// partner lists are rights, reporting each left entry's per-query streams
// in query order. An internal node is charged with one access pass over
// the union of its partner lists; then, child by child, each query's
// partner list is pruned with that query's window of the child's box and
// the descent moves into the child.
func (j *batchJoin) descend(el *entry, rights [][]*entry) error {
	if err := j.poll.Check(); err != nil {
		return err
	}
	nl := el.child
	j.accessRights(nl, rights)
	if !nl.leaf {
		for i := range nl.entries {
			child := &nl.entries[i]
			childRights := make([][]*entry, len(j.windows))
			for k, wf := range j.windows {
				if err := j.poll.Charge(int64(len(rights[k]))); err != nil {
					return err
				}
				wf(j.win, child.rect)
				crs := make([]*entry, 0, len(rights[k]))
				for _, er := range rights[k] {
					nr := er.child
					for e := range nr.entries {
						if intersects(j.win, nr.entries[e].rect) {
							crs = append(crs, &nr.entries[e])
						}
					}
				}
				childRights[k] = crs
			}
			if err := j.descend(child, childRights); err != nil {
				return err
			}
		}
		return nil
	}
	v := j.v
	for k, rs := range rights {
		selfFirst(rs, nl)
		j.covers[k] = nil
		if v.Leaf != nil {
			if cover := v.Leaf(k, el.rect, j.core); cover != nil {
				j.covers[k] = j.findCover(rs, cover)
			}
		}
	}
	for i := range nl.entries {
		le := &nl.entries[i]
		for k, wf := range j.windows {
			if err := j.poll.Charge(int64(len(rights[k]))); err != nil {
				return err
			}
			if c := j.covers[k]; c != nil && c != le {
				j.counts.Skipped++
				continue
			}
			if v.Begin != nil && !v.Begin(k, le.id, le.rect) {
				continue
			}
			wf(j.win, le.rect)
			j.streamRights(k, le, rights[k])
			if v.End != nil {
				v.End(k, le.id)
			}
		}
	}
	return nil
}

// selfFirst moves the left leaf's own entry to the front of one query's
// partner list, keeping the other partners in list order.
func selfFirst(rights []*entry, nl *node) {
	for i, pe := range rights {
		if pe.child == nl {
			copy(rights[1:i+1], rights[:i])
			rights[0] = pe
			return
		}
	}
}

// findCover looks through one query's partner leaves, in list order, for
// the first right entry strictly inside j.core that cover accepts, and
// returns nil if there is none.
func (j *batchJoin) findCover(rights []*entry, cover func(int) bool) *entry {
	for _, pe := range rights {
		j.counts.EntriesScanned++
		if !intersects(j.core, pe.rect) {
			continue
		}
		nr := pe.child
		for e := range nr.entries {
			er := &nr.entries[e]
			j.counts.EntriesScanned++
			if strictlyInside(er.rect, j.core) && cover(er.id) {
				return er
			}
		}
	}
	return nil
}

// streamRights reports the matches of one left leaf entry for query k
// against that query's surviving right leaves, in list order, honoring the
// early-stop contract of Pair. A partner leaf whose box misses the window
// is passed over without reading its entries.
func (j *batchJoin) streamRights(k int, el *entry, rights []*entry) {
	w, pair := j.win, j.v.Pair
	var tests int64
	for _, pe := range rights {
		tests++
		if !intersects(w, pe.rect) {
			continue
		}
		nr := pe.child
		for e := range nr.entries {
			er := &nr.entries[e]
			if er.id == el.id {
				continue
			}
			tests++
			if !intersects(w, er.rect) {
				continue
			}
			if !pair(k, el.id, er.id, er.rect) {
				j.counts.EntriesScanned += tests
				return
			}
		}
	}
	j.counts.EntriesScanned += tests
}
