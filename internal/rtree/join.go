package rtree

import (
	"cmp"
	"context"
	"slices"
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
//   - Begin is called once per (query, left data entry); returning false
//     skips that stream entirely (End is not called).
//   - Pair is called for every right data entry whose rectangle intersects
//     window_k(left rectangle), excluding the left entry itself; returning
//     false ends this stream early (the join continues with the next
//     stream) — the hook that lets callers stop enumerating once a
//     per-object decision is already forced. Within a stream the pairs
//     come from the nearest partner leaf first (see JoinSelfStreamBatch);
//     callers must not rely on any order beyond that.
//   - End is called after the (possibly truncated) stream.
type BatchStreamVisitor struct {
	Begin func(k, leftID int, leftRect geom.Rect) bool
	Pair  func(k, leftID, rightID int, rightRect geom.Rect) bool
	End   func(k, leftID int)
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
// entry is visited for every query, including entries with empty streams.
//
// At a left leaf every query's partner leaves are scanned nearest first:
// stable-sorted by the distance between their box centre and the left
// leaf's, so the left leaf itself comes first. A stream a caller stops at
// its first covering candidate then ends after a few rectangle tests
// instead of after scanning partners in tree order. The order within a
// stream is an optimisation, not a contract.
//
// The call returns the node accesses it made: one for each expanded left
// node plus one per distinct surviving right node — the union of the
// per-query partner lists, mirroring a join that pins the left page and
// streams each needed right page once for all queries. A single query
// costs exactly the classic single-window join; for Q > 1 queries the
// total is strictly below Q single-window joins, because the left-descent
// accesses alone shrink Q-fold. A canceled join returns the accesses made
// before it stopped.
//
// With workers > 1 the dispatcher peels top-level subtrees off the left
// descent (going one level deeper while the task list is smaller than the
// pool wants) and hands each task to a worker running the serial
// recursion with its own visitor. Left entries are partitioned across the
// visitors and their groups run concurrently, so callers keep per-object
// state inside each visitor (or index shared state by left ID, which the
// partition makes race-free) and merge after the call returns. Each worker
// counts its node accesses in its own scratch, and the call sums them with
// the dispatcher's once every worker has finished. workers <= 1 runs
// serially with a single visitor.
//
// The dispatcher and each worker poll ctx with their own amortized
// checker — one unit per visited node plus one per right node scanned for
// a (query, left entry) pair, so a large batch observes a stage deadline
// within one stride of rectangle scans — and a worker abandons its
// remaining tasks when its poll fires; the dispatcher stops handing out
// tasks as well, and the first context error is returned after all workers
// drain.
func (t *Tree) JoinSelfStreamBatch(ctx context.Context, windows []WindowFunc, workers int, newVisitor func() BatchStreamVisitor) (int64, error) {
	if t.size == 0 || len(windows) == 0 {
		return 0, nil
	}
	rootEntry := &entry{rect: t.root.mbr(), child: t.root}
	rootRights := make([][]*entry, len(windows))
	for k := range rootRights {
		rootRights[k] = []*entry{rootEntry}
	}
	root := batchTask{left: rootEntry, rights: rootRights}

	poll := ctxutil.NewPoll(ctx, ctxutil.DefaultStride)
	if workers <= 1 || t.root.leaf {
		sc := t.newBatchScratch()
		err := t.batchJoinLeft(root, windows, newVisitor(), poll, sc)
		return sc.accesses, err
	}

	// Grow the task frontier until there is enough slack for the pool to
	// balance uneven subtree costs. All leaves sit at the same level
	// (R*-tree invariant), so the frontier is homogeneous.
	frontierScratch := t.newBatchScratch()
	tasks := []batchTask{root}
	for !tasks[0].left.child.leaf && len(tasks) < 4*workers {
		next := make([]batchTask, 0, len(tasks)*t.maxEntries)
		for _, tk := range tasks {
			children, err := t.expandBatchTask(tk, windows, poll, frontierScratch)
			if err != nil {
				return frontierScratch.accesses, err
			}
			next = append(next, children...)
		}
		if len(next) == 0 {
			return frontierScratch.accesses, nil
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
			sc := t.newBatchScratch()
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
	accesses := frontierScratch.accesses
	for _, sc := range scratch {
		accesses += sc.accesses
	}
	for _, err := range errs {
		if err != nil {
			return accesses, err
		}
	}
	return accesses, nil
}

// batchScratch is per-worker reusable state, so the hot descent performs
// no per-node or per-entry allocation: the seen set of the union-access
// accounting (cleared, capacity retained, between nodes), the window the
// current (entry, query) pair is tested against, and the sort keys of the
// nearest-first partner order. Every worker owns its own: the WindowFuncs
// that write the window are shared by all workers and concurrent joins.
// accesses is the worker's node-access count, summed by the join after
// every worker has finished.
type batchScratch struct {
	seen     map[*node]struct{}
	win      geom.Rect
	near     []partnerKey
	accesses int64
}

// partnerKey is one partner leaf with its sort key in nearestFirst.
type partnerKey struct {
	d2 float64
	e  *entry
}

func (t *Tree) newBatchScratch() *batchScratch {
	return &batchScratch{
		seen: make(map[*node]struct{}, 64),
		win:  geom.Rect{Min: make(geom.Point, t.dims), Max: make(geom.Point, t.dims)},
	}
}

// nearestFirst stable-sorts one query's partner leaves by the squared
// distance between their box centre and the left leaf's box centre. The
// keys use doubled centres (Min+Max), which scales every distance by the
// same factor and leaves the order unchanged.
func (sc *batchScratch) nearestFirst(rights []*entry, left geom.Rect) {
	if len(rights) < 2 {
		return
	}
	keys := sc.near[:0]
	for _, er := range rights {
		var d2 float64
		for j := range left.Min {
			dj := (er.rect.Min[j] + er.rect.Max[j]) - (left.Min[j] + left.Max[j])
			d2 += dj * dj
		}
		keys = append(keys, partnerKey{d2: d2, e: er})
	}
	slices.SortStableFunc(keys, func(a, b partnerKey) int { return cmp.Compare(a.d2, b.d2) })
	for i := range keys {
		rights[i] = keys[i].e
	}
	sc.near = keys
}

// accessBatchRights counts the left node once and every distinct right
// node of the per-query partner lists once — the union across queries,
// excluding the pinned left node itself. A single query's partner list
// holds no repeats, so it skips the seen set.
func (sc *batchScratch) accessBatchRights(nl *node, rights [][]*entry) {
	sc.accesses++
	if len(rights) == 1 {
		for _, er := range rights[0] {
			if er.child != nl {
				sc.accesses++
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
				sc.accesses++
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
					if sc.win.Intersects(nr.entries[j].rect) {
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
	for _, rs := range tk.rights {
		sc.nearestFirst(rs, tk.left.rect)
	}
	for i := range nl.entries {
		el := &nl.entries[i]
		for k := range windows {
			if err := poll.Charge(int64(len(tk.rights[k]))); err != nil {
				return err
			}
			if v.Begin != nil && !v.Begin(k, el.id, el.rect) {
				continue
			}
			windows[k](sc.win, el.rect)
			t.streamRightsBatch(k, el, sc.win, tk.rights[k], v)
			if v.End != nil {
				v.End(k, el.id)
			}
		}
	}
	return nil
}

// streamRightsBatch reports the matches of one left leaf entry for query k
// against that query's surviving right leaves, in list order, honoring the
// early-stop contract of Pair.
func (t *Tree) streamRightsBatch(k int, el *entry, w geom.Rect, rights []*entry, v BatchStreamVisitor) {
	for _, pe := range rights {
		nr := pe.child
		for j := range nr.entries {
			er := &nr.entries[j]
			if er.id == el.id || !w.Intersects(er.rect) {
				continue
			}
			if !v.Pair(k, el.id, er.id, er.rect) {
				return
			}
		}
	}
}
