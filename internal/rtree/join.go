package rtree

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/crsky/crsky/internal/ctxutil"
	"github.com/crsky/crsky/internal/geom"
)

// WindowFunc writes the (conservative) search window of the rectangle r
// into dst, whose Min and Max hold the tree's dimensionality. The join
// passes each worker's own scratch as dst, so a window costs no allocation
// and the function must keep no state of its own: every worker of every
// concurrent join calls it. For the branch-and-bound descent of
// JoinSelfStreamBatch to be correct the window must be monotone: r ⊆ s
// implies window(r) ⊆ window(s), so that a node-level window covers every
// window of the entries below it.
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

// JoinCounts is the work of one JoinSelfStreamBatch call, summed over its
// workers. Every count is deterministic: the same tree, windows and
// visitor verdicts give the same counts at every worker count.
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

func (c *JoinCounts) add(o JoinCounts) {
	c.NodeAccesses += o.NodeAccesses
	c.EntriesScanned += o.EntriesScanned
	c.Skipped += o.Skipped
}

// batchTask is one unit of join work: a left subtree plus, for each query,
// the right subtrees that can still contribute matches under that query's
// window. Subtrees travel as their parent entries, so each carries its box
// (the root, which has no parent, gets a synthetic entry).
type batchTask struct {
	left   *entry
	rights [][]*entry
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
// unless a leaf cover skips it (see BatchStreamVisitor.Leaf).
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
// accesses alone shrink Q-fold. A canceled join returns the counts made
// before it stopped.
//
// With workers > 1 the dispatcher peels top-level subtrees off the left
// descent (going one level deeper while the task list is smaller than the
// pool wants) and hands each task to a worker running the serial
// recursion with its own visitor. Left entries are partitioned across the
// visitors and their groups run concurrently, so callers keep per-object
// state inside each visitor (or index shared state by left ID, which the
// partition makes race-free) and merge after the call returns. Each worker
// counts its work in its own scratch, and the call sums the counts with
// the dispatcher's once every worker has finished. workers <= 1 runs
// serially with a single visitor.
//
// The dispatcher and each worker poll ctx with their own amortized
// checker — one unit per visited node plus one per right node scanned for
// a (query, left entry) pair, so a large batch observes a deadline
// within one stride of rectangle scans — and a worker abandons its
// remaining tasks when its poll fires; the dispatcher stops handing out
// tasks as well, and the first context error is returned after all workers
// drain.
func (t *Tree) JoinSelfStreamBatch(ctx context.Context, windows []WindowFunc, workers int, newVisitor func() BatchStreamVisitor) (JoinCounts, error) {
	if t.size == 0 || len(windows) == 0 {
		return JoinCounts{}, nil
	}
	rootEntry := &entry{rect: t.root.mbr(), child: t.root}
	rootRights := make([][]*entry, len(windows))
	for k := range rootRights {
		rootRights[k] = []*entry{rootEntry}
	}
	root := batchTask{left: rootEntry, rights: rootRights}

	poll := ctxutil.NewPoll(ctx, ctxutil.DefaultStride)
	if workers <= 1 || t.root.leaf {
		sc := t.newBatchScratch(len(windows))
		err := t.batchJoinLeft(root, windows, newVisitor(), poll, sc)
		return sc.counts, err
	}

	// Grow the task frontier until there is enough slack for the pool to
	// balance uneven subtree costs. All leaves sit at the same level
	// (R*-tree invariant), so the frontier is homogeneous.
	frontierScratch := t.newBatchScratch(len(windows))
	tasks := []batchTask{root}
	for !tasks[0].left.child.leaf && len(tasks) < 4*workers {
		next := make([]batchTask, 0, len(tasks)*t.maxEntries)
		for _, tk := range tasks {
			children, err := t.expandBatchTask(tk, windows, poll, frontierScratch)
			if err != nil {
				return frontierScratch.counts, err
			}
			next = append(next, children...)
		}
		if len(next) == 0 {
			return frontierScratch.counts, nil
		}
		tasks = next
	}

	ch := make(chan batchTask)
	errs := make([]error, workers)
	scratch := make([]*batchScratch, workers)
	var wg sync.WaitGroup
	var aborted atomic.Bool
	for wi := 0; wi < workers; wi++ {
		wi := wi
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := newVisitor()
			poll := ctxutil.NewPoll(ctx, ctxutil.DefaultStride)
			sc := t.newBatchScratch(len(windows))
			scratch[wi] = sc
			for tk := range ch {
				if errs[wi] != nil {
					continue // drain without working after a cancellation
				}
				if err := t.batchJoinLeft(tk, windows, v, poll, sc); err != nil {
					errs[wi] = err
					aborted.Store(true)
				}
			}
		}()
	}
	for _, tk := range tasks {
		if aborted.Load() {
			break
		}
		ch <- tk
	}
	close(ch)
	wg.Wait()
	counts := frontierScratch.counts
	for _, sc := range scratch {
		counts.add(sc.counts)
	}
	for _, err := range errs {
		if err != nil {
			return counts, err
		}
	}
	return counts, nil
}

// batchScratch is per-worker reusable state, so the hot descent performs
// no per-node or per-entry allocation: the seen set of the union-access
// accounting (cleared, capacity retained, between nodes), the window the
// current (entry, query) pair is tested against, the core a Leaf hook
// writes, and the per-query leaf covers. Every worker owns its own: the
// WindowFuncs that write the window are shared by all workers and
// concurrent joins. counts is the worker's work, summed by the join after
// every worker has finished.
type batchScratch struct {
	seen   map[*node]struct{}
	win    geom.Rect
	core   geom.Rect
	covers []*entry // per query: the current left leaf's cover, or nil
	counts JoinCounts
}

func (t *Tree) newBatchScratch(numQ int) *batchScratch {
	return &batchScratch{
		seen:   make(map[*node]struct{}, 64),
		win:    geom.Rect{Min: make(geom.Point, t.dims), Max: make(geom.Point, t.dims)},
		core:   geom.Rect{Min: make(geom.Point, t.dims), Max: make(geom.Point, t.dims)},
		covers: make([]*entry, numQ),
	}
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

// accessBatchRights counts the left node once and every distinct right
// node of the per-query partner lists once — the union across queries,
// excluding the pinned left node itself. A single query's partner list
// holds no repeats, so it skips the seen set.
func (sc *batchScratch) accessBatchRights(nl *node, rights [][]*entry) {
	sc.counts.NodeAccesses++
	if len(rights) == 1 {
		for _, er := range rights[0] {
			if er.child != nl {
				sc.counts.NodeAccesses++
			}
		}
		return
	}
	clear(sc.seen)
	sc.seen[nl] = struct{}{}
	for _, rs := range rights {
		for _, er := range rs {
			if _, dup := sc.seen[er.child]; !dup {
				sc.seen[er.child] = struct{}{}
				sc.counts.NodeAccesses++
			}
		}
	}
}

// expandBatchTask performs one internal-node expansion of the shared left
// descent — the single copy of the non-leaf access accounting and
// partner-list pruning, shared by the serial recursion and the parallel
// dispatcher: one access pass over the union of partner lists, then
// per-query pruning of each child's partner list with that query's window.
func (t *Tree) expandBatchTask(tk batchTask, windows []WindowFunc, poll *ctxutil.Poll, sc *batchScratch) ([]batchTask, error) {
	nl := tk.left.child
	sc.accessBatchRights(nl, tk.rights)
	out := make([]batchTask, 0, len(nl.entries))
	for i := range nl.entries {
		el := &nl.entries[i]
		childRights := make([][]*entry, len(windows))
		for k, wf := range windows {
			if err := poll.Charge(int64(len(tk.rights[k]))); err != nil {
				return nil, err
			}
			wf(sc.win, el.rect)
			crs := make([]*entry, 0, len(tk.rights[k]))
			for _, er := range tk.rights[k] {
				nr := er.child
				for j := range nr.entries {
					if intersects(sc.win, nr.entries[j].rect) {
						crs = append(crs, &nr.entries[j])
					}
				}
			}
			childRights[k] = crs
		}
		out = append(out, batchTask{left: el, rights: childRights})
	}
	return out, nil
}

// batchJoinLeft is the serial recursion over one left subtree, reporting
// each left entry's per-query streams in query order.
func (t *Tree) batchJoinLeft(tk batchTask, windows []WindowFunc, v BatchStreamVisitor, poll *ctxutil.Poll, sc *batchScratch) error {
	if err := poll.Check(); err != nil {
		return err
	}
	nl := tk.left.child
	if !nl.leaf {
		children, err := t.expandBatchTask(tk, windows, poll, sc)
		if err != nil {
			return err
		}
		for _, child := range children {
			if err := t.batchJoinLeft(child, windows, v, poll, sc); err != nil {
				return err
			}
		}
		return nil
	}
	sc.accessBatchRights(nl, tk.rights)
	for k, rs := range tk.rights {
		selfFirst(rs, nl)
		sc.covers[k] = nil
		if v.Leaf != nil {
			if cover := v.Leaf(k, tk.left.rect, sc.core); cover != nil {
				sc.covers[k] = sc.findCover(rs, cover)
			}
		}
	}
	for i := range nl.entries {
		el := &nl.entries[i]
		for k := range windows {
			if err := poll.Charge(int64(len(tk.rights[k]))); err != nil {
				return err
			}
			if c := sc.covers[k]; c != nil && c != el {
				sc.counts.Skipped++
				continue
			}
			if v.Begin != nil && !v.Begin(k, el.id, el.rect) {
				continue
			}
			windows[k](sc.win, el.rect)
			sc.streamRights(k, el, tk.rights[k], v)
			if v.End != nil {
				v.End(k, el.id)
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
// the first right entry strictly inside sc.core that cover accepts, and
// returns nil if there is none.
func (sc *batchScratch) findCover(rights []*entry, cover func(int) bool) *entry {
	for _, pe := range rights {
		sc.counts.EntriesScanned++
		if !intersects(sc.core, pe.rect) {
			continue
		}
		nr := pe.child
		for j := range nr.entries {
			er := &nr.entries[j]
			sc.counts.EntriesScanned++
			if strictlyInside(er.rect, sc.core) && cover(er.id) {
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
func (sc *batchScratch) streamRights(k int, el *entry, rights []*entry, v BatchStreamVisitor) {
	w := sc.win
	var tests int64
	for _, pe := range rights {
		tests++
		if !intersects(w, pe.rect) {
			continue
		}
		nr := pe.child
		for j := range nr.entries {
			er := &nr.entries[j]
			if er.id == el.id {
				continue
			}
			tests++
			if !intersects(w, er.rect) {
				continue
			}
			if !v.Pair(k, el.id, er.id, er.rect) {
				sc.counts.EntriesScanned += tests
				return
			}
		}
	}
	sc.counts.EntriesScanned += tests
}
