package rtree

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/crsky/crsky/internal/ctxutil"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/obs"
	"github.com/crsky/crsky/internal/stats"
)

// joinTally returns a per-call node-access counter for a traced join plus
// the flush that folds it into the request trace, or (nil, no-op) when ctx
// carries no trace. The tree-wide io counter is shared by every concurrent
// request on the dataset, so per-request attribution needs its own tally;
// stats.Counter methods are nil-safe, making the untraced fast path a
// single branch per access.
func joinTally(ctx context.Context) (*stats.Counter, func()) {
	tr := obs.FromContext(ctx)
	if tr == nil {
		return nil, func() {}
	}
	c := new(stats.Counter)
	return c, func() { tr.Add("rtree.joinNodeAccesses", c.Value()) }
}

// WindowFunc maps a rectangle to its (conservative) search window. For the
// branch-and-bound descent of JoinSelfStreamBatch to be correct the
// function must be monotone: r ⊆ s implies window(r) ⊆ window(s), so that
// a node-level window covers every window of the entries below it.
type WindowFunc func(geom.Rect) geom.Rect

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
//     per-object decision is already forced.
//   - End is called after the (possibly truncated) stream.
type BatchStreamVisitor struct {
	Begin func(k, leftID int, leftRect geom.Rect) bool
	Pair  func(k, leftID, rightID int, rightRect geom.Rect) bool
	End   func(k, leftID int)
}

// batchTask is one unit of join work: a left subtree plus, for each query,
// the right subtrees that can still contribute matches under that query's
// window.
type batchTask struct {
	left   *node
	rights [][]*node
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
// Node accesses are charged once for each expanded left node plus once per
// distinct surviving right node — the union of the per-query partner
// lists, mirroring a join that pins the left page and streams each needed
// right page once for all queries. A single query is charged exactly the
// classic single-window join; for Q > 1 queries the total is strictly below
// Q single-window joins, because the left-descent charges alone shrink
// Q-fold.
//
// With workers > 1 the dispatcher peels top-level subtrees off the left
// descent (going one level deeper while the task list is smaller than the
// pool wants) and hands each task to a worker running the serial
// recursion with its own visitor. Left entries are partitioned across the
// visitors and their groups run concurrently, so callers keep per-object
// state inside each visitor (or index shared state by left ID, which the
// partition makes race-free) and merge after the call returns. The
// attached access counter must be safe for concurrent use (stats.Counter
// is). workers <= 1 runs serially with a single visitor.
//
// The dispatcher and each worker poll ctx with their own amortized
// checker — one unit per visited node plus one per right node scanned for
// a (query, left entry) pair, so a large batch observes a stage deadline
// within one stride of rectangle scans — and a worker abandons its
// remaining tasks when its poll fires; the dispatcher stops handing out
// tasks as well, and the first context error is returned after all workers
// drain.
func (t *Tree) JoinSelfStreamBatch(ctx context.Context, windows []WindowFunc, workers int, newVisitor func() BatchStreamVisitor) error {
	if t.size == 0 || len(windows) == 0 {
		return nil
	}
	rootRights := make([][]*node, len(windows))
	for k := range rootRights {
		rootRights[k] = []*node{t.root}
	}
	root := batchTask{left: t.root, rights: rootRights}
	tally, flush := joinTally(ctx)
	defer flush()

	poll := ctxutil.NewPoll(ctx, ctxutil.DefaultStride)
	if workers <= 1 || t.root.leaf {
		return t.batchJoinLeft(root, windows, newVisitor(), poll, newBatchScratch(), tally)
	}

	// Grow the task frontier until there is enough slack for the pool to
	// balance uneven subtree costs. All leaves sit at the same level
	// (R*-tree invariant), so the frontier is homogeneous.
	frontierScratch := newBatchScratch()
	tasks := []batchTask{root}
	for !tasks[0].left.leaf && len(tasks) < 4*workers {
		next := make([]batchTask, 0, len(tasks)*t.maxEntries)
		for _, tk := range tasks {
			children, err := t.expandBatchTask(tk, windows, poll, frontierScratch, tally)
			if err != nil {
				return err
			}
			next = append(next, children...)
		}
		if len(next) == 0 {
			return nil
		}
		tasks = next
	}

	ch := make(chan batchTask)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	var aborted atomic.Bool
	for wi := 0; wi < workers; wi++ {
		wi := wi
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := newVisitor()
			poll := ctxutil.NewPoll(ctx, ctxutil.DefaultStride)
			sc := newBatchScratch()
			for tk := range ch {
				if errs[wi] != nil {
					continue // drain without working after a cancellation
				}
				if err := t.batchJoinLeft(tk, windows, v, poll, sc, tally); err != nil {
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
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// batchScratch is per-worker reusable state for the union-access
// accounting: the seen set is cleared (capacity retained) between nodes,
// so the hot descent performs no per-node allocation.
type batchScratch struct {
	seen map[*node]struct{}
}

func newBatchScratch() *batchScratch {
	return &batchScratch{seen: make(map[*node]struct{}, 64)}
}

// accessBatchRights charges the left node once and every distinct right
// node of the per-query partner lists once — the union across queries,
// excluding the pinned left node itself. A single query's partner list
// holds no repeats, so it skips the seen set.
func (t *Tree) accessBatchRights(nl *node, rights [][]*node, sc *batchScratch, tally *stats.Counter) {
	t.access(nl)
	tally.Inc()
	if len(rights) == 1 {
		for _, nr := range rights[0] {
			if nr != nl {
				t.access(nr)
				tally.Inc()
			}
		}
		return
	}
	clear(sc.seen)
	sc.seen[nl] = struct{}{}
	for _, rs := range rights {
		for _, nr := range rs {
			if _, dup := sc.seen[nr]; !dup {
				sc.seen[nr] = struct{}{}
				t.access(nr)
				tally.Inc()
			}
		}
	}
}

// expandBatchTask performs one internal-node expansion of the shared left
// descent — the single copy of the non-leaf access accounting and
// partner-list pruning, shared by the serial recursion and the parallel
// dispatcher: one access pass over the union of partner lists, then
// per-query pruning of each child's partner list with that query's window.
func (t *Tree) expandBatchTask(tk batchTask, windows []WindowFunc, poll *ctxutil.Poll, sc *batchScratch, tally *stats.Counter) ([]batchTask, error) {
	nl := tk.left
	t.accessBatchRights(nl, tk.rights, sc, tally)
	out := make([]batchTask, 0, len(nl.entries))
	for i := range nl.entries {
		el := &nl.entries[i]
		childRights := make([][]*node, len(windows))
		for k, wf := range windows {
			if err := poll.Charge(int64(len(tk.rights[k]))); err != nil {
				return nil, err
			}
			w := wf(el.rect)
			crs := make([]*node, 0, len(tk.rights[k]))
			for _, nr := range tk.rights[k] {
				for j := range nr.entries {
					if w.Intersects(nr.entries[j].rect) {
						crs = append(crs, nr.entries[j].child)
					}
				}
			}
			childRights[k] = crs
		}
		out = append(out, batchTask{left: el.child, rights: childRights})
	}
	return out, nil
}

// batchJoinLeft is the serial recursion over one left subtree, reporting
// each left entry's per-query streams in query order.
func (t *Tree) batchJoinLeft(tk batchTask, windows []WindowFunc, v BatchStreamVisitor, poll *ctxutil.Poll, sc *batchScratch, tally *stats.Counter) error {
	if err := poll.Check(); err != nil {
		return err
	}
	nl := tk.left
	if !nl.leaf {
		children, err := t.expandBatchTask(tk, windows, poll, sc, tally)
		if err != nil {
			return err
		}
		for _, child := range children {
			if err := t.batchJoinLeft(child, windows, v, poll, sc, tally); err != nil {
				return err
			}
		}
		return nil
	}
	t.accessBatchRights(nl, tk.rights, sc, tally)
	for i := range nl.entries {
		el := &nl.entries[i]
		for k := range windows {
			if err := poll.Charge(int64(len(tk.rights[k]))); err != nil {
				return err
			}
			if v.Begin != nil && !v.Begin(k, el.id, el.rect) {
				continue
			}
			w := windows[k](el.rect)
			t.streamRightsBatch(k, el, w, tk.rights[k], v)
			if v.End != nil {
				v.End(k, el.id)
			}
		}
	}
	return nil
}

// streamRightsBatch reports the matches of one left leaf entry for query k
// against that query's surviving right leaves, honoring the early-stop
// contract of Pair.
func (t *Tree) streamRightsBatch(k int, el *entry, w geom.Rect, rights []*node, v BatchStreamVisitor) {
	for _, nr := range rights {
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
