package rtree

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/crsky/crsky/internal/geom"
)

// joinWindow is the test window: a symmetric outward inflation, monotone
// under rectangle growth as JoinSelfStreamBatch requires.
func joinWindow(pad float64) WindowFunc {
	return func(dst, r geom.Rect) {
		for i := range r.Min {
			dst.Min[i] = r.Min[i] - pad
			dst.Max[i] = r.Max[i] + pad
		}
	}
}

// padWindows returns numQ windows with distinct pads base, base+2, …, so
// the queries of one batch prune their partner lists differently.
func padWindows(numQ int, base float64) []WindowFunc {
	windows := make([]WindowFunc, numQ)
	for k := range windows {
		windows[k] = joinWindow(base + 2*float64(k))
	}
	return windows
}

// bruteSelfJoin computes the reference output: for every item, the other
// items whose rect intersects window(item.rect).
func bruteSelfJoin(items []Item, window WindowFunc) map[int][]int {
	out := make(map[int][]int, len(items))
	for _, a := range items {
		w := a.Rect.Clone()
		window(w, a.Rect)
		out[a.ID] = []int{}
		for _, b := range items {
			if b.ID != a.ID && w.Intersects(b.Rect) {
				out[a.ID] = append(out[a.ID], b.ID)
			}
		}
		sort.Ints(out[a.ID])
	}
	return out
}

// batchCollect records the per-query grouped streams of a batch join. Its
// visitor asserts the per-query Begin/Pair*/End contract on every group.
type batchCollect struct {
	t       *testing.T
	leaf    func(k int, leaf, core geom.Rect) func(int) bool // the visitors' Leaf hook
	streams []map[int][]int                                  // per query: left id -> right ids in stream order
	begun   []map[int]int                                    // per query: left id -> Begin calls
}

func newBatchCollect(t *testing.T, numQ int) *batchCollect {
	c := &batchCollect{t: t, streams: make([]map[int][]int, numQ), begun: make([]map[int]int, numQ)}
	for k := range c.streams {
		c.streams[k] = map[int][]int{}
		c.begun[k] = map[int]int{}
	}
	return c
}

func (c *batchCollect) visitor() BatchStreamVisitor {
	open, curQ, cur := false, 0, 0
	return BatchStreamVisitor{
		Leaf: c.leaf,
		Begin: func(k, id int, _ geom.Rect) bool {
			if open {
				c.t.Errorf("Begin(q%d,%d) while stream q%d/%d still open", k, id, curQ, cur)
			}
			open, curQ, cur = true, k, id
			c.begun[k][id]++
			if _, ok := c.streams[k][id]; !ok {
				c.streams[k][id] = []int{}
			}
			return true
		},
		Pair: func(k, leftID, rightID int, _ geom.Rect) bool {
			if !open || leftID != cur || k != curQ {
				c.t.Errorf("Pair(q%d,%d,%d) outside its group (current q%d/%d)", k, leftID, rightID, curQ, cur)
			}
			c.streams[k][leftID] = append(c.streams[k][leftID], rightID)
			return true
		},
		End: func(k, id int) {
			if !open || id != cur || k != curQ {
				c.t.Errorf("End(q%d,%d) without matching Begin (current q%d/%d)", k, id, curQ, cur)
			}
			open = false
		},
	}
}

// runBatch joins tr under windows and returns the collected streams with
// the join's counts.
func runBatch(t *testing.T, tr *Tree, windows []WindowFunc) (*batchCollect, JoinCounts) {
	t.Helper()
	return runBatchLeaf(t, tr, windows, nil)
}

// runBatchLeaf is runBatch with a Leaf hook on the visitor.
func runBatchLeaf(t *testing.T, tr *Tree, windows []WindowFunc,
	leaf func(k int, leaf, core geom.Rect) func(int) bool) (*batchCollect, JoinCounts) {
	t.Helper()
	c := newBatchCollect(t, len(windows))
	c.leaf = leaf
	counts, err := tr.JoinSelfStreamBatch(context.Background(), windows, c.visitor())
	if err != nil {
		t.Fatal(err)
	}
	if leaf == nil && counts.Skipped != 0 {
		t.Fatalf("join without a Leaf hook skipped %d streams", counts.Skipped)
	}
	return c, counts
}

// evenCovers is the toy whole-leaf reject of the join tests: every query
// but the odd ones takes the left leaf's own box as the core, and even
// IDs cover. Every window contains its rectangle, so the leaf box lies
// inside the leaf's window: each entry strictly inside it sits in a
// partner leaf, and the brute-force cover set of a leaf is exact.
func evenCovers(k int, leaf, core geom.Rect) func(int) bool {
	if k%2 == 1 {
		return nil
	}
	copy(core.Min, leaf.Min)
	copy(core.Max, leaf.Max)
	return isEven
}

func isEven(id int) bool { return id%2 == 0 }

// leafBoxes lists every leaf of tr with the box the join hands the Leaf
// hook: the parent entry's rectangle (the root leaf's own MBR).
func leafBoxes(tr *Tree) (boxes []geom.Rect, ids [][]int) {
	var walk func(n *node, box geom.Rect)
	walk = func(n *node, box geom.Rect) {
		if n.leaf {
			var leafIDs []int
			for _, e := range n.entries {
				leafIDs = append(leafIDs, e.id)
			}
			boxes, ids = append(boxes, box), append(ids, leafIDs)
			return
		}
		for _, e := range n.entries {
			walk(e.child, e.rect)
		}
	}
	if tr.size > 0 {
		walk(tr.root, tr.root.mbr())
	}
	return boxes, ids
}

// checkLeafCovers asserts the Leaf hook's contract for a join run with
// evenCovers: in a leaf that has a cover (an even ID strictly inside its
// box) under a query that arms the reject, at most one entry streams and
// it is a cover itself; every other (query, entry) streams exactly once;
// every stream that runs matches brute force; and the join's Skipped count
// is the number of streams that did not run. It returns that number.
func checkLeafCovers(t *testing.T, label string, tr *Tree, c *batchCollect, items []Item, windows []WindowFunc, counts JoinCounts) int64 {
	t.Helper()
	boxes, leafIDs := leafBoxes(tr)
	var skipped int64
	for k, window := range windows {
		want := bruteSelfJoin(items, window)
		for li, box := range boxes {
			covers := map[int]bool{}
			if evenCovers(k, box, box.Clone()) != nil {
				for _, it := range items {
					if isEven(it.ID) && strictlyInside(it.Rect, box) {
						covers[it.ID] = true
					}
				}
			}
			var ran []int
			for _, id := range leafIDs[li] {
				switch c.begun[k][id] {
				case 0:
				case 1:
					ran = append(ran, id)
				default:
					t.Fatalf("%s q=%d: left %d begun %d times", label, k, id, c.begun[k][id])
				}
			}
			if len(covers) == 0 {
				if len(ran) != len(leafIDs[li]) {
					t.Fatalf("%s q=%d: leaf %v has no cover, yet only %v of %v streamed", label, k, box, ran, leafIDs[li])
				}
				continue
			}
			if len(ran) > 1 || (len(ran) == 1 && !covers[ran[0]]) {
				t.Fatalf("%s q=%d: leaf %v has covers %v, yet %v streamed", label, k, box, covers, ran)
			}
			skipped += int64(len(leafIDs[li]) - len(ran))
		}
		for id, got := range c.streams[k] {
			got = append([]int(nil), got...)
			sort.Ints(got)
			if fmt.Sprint(got) != fmt.Sprint(want[id]) {
				t.Fatalf("%s q=%d id=%d: got %v, want %v", label, k, id, got, want[id])
			}
		}
	}
	if counts.Skipped != skipped {
		t.Fatalf("%s: join counted %d skipped streams, the leaves show %d", label, counts.Skipped, skipped)
	}
	return skipped
}

// checkBrute asserts every query's streams against the brute-force join:
// each left entry begun exactly once per query, with exactly the brute
// force match set.
func checkBrute(t *testing.T, label string, c *batchCollect, items []Item, windows []WindowFunc) {
	t.Helper()
	for k, window := range windows {
		want := bruteSelfJoin(items, window)
		if len(c.streams[k]) != len(items) {
			t.Fatalf("%s q=%d: %d left streams, want %d", label, k, len(c.streams[k]), len(items))
		}
		for id, cnt := range c.begun[k] {
			if cnt != 1 {
				t.Fatalf("%s q=%d: left %d begun %d times", label, k, id, cnt)
			}
		}
		for id, got := range c.streams[k] {
			got = append([]int(nil), got...)
			sort.Ints(got)
			if fmt.Sprint(got) != fmt.Sprint(want[id]) {
				t.Fatalf("%s q=%d id=%d: got %v, want %v", label, k, id, got, want[id])
			}
		}
	}
}

func randomItems(rng *rand.Rand, n, dims int) []Item {
	items := make([]Item, n)
	for i := range items {
		lo := make(geom.Point, dims)
		hi := make(geom.Point, dims)
		for d := 0; d < dims; d++ {
			lo[d] = rng.Float64() * 100
			hi[d] = lo[d] + rng.Float64()*8
		}
		items[i] = Item{Rect: geom.Rect{Min: lo, Max: hi}, ID: i}
	}
	return items
}

func TestJoinSelfStreamMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 7, 60, 400} {
		items := randomItems(rng, n, 2)
		tr := New(2, WithMaxEntries(8))
		tr.BulkLoad(items)
		for _, numQ := range []int{1, 3} {
			windows := padWindows(numQ, 3)
			c, _ := runBatch(t, tr, windows)
			checkBrute(t, fmt.Sprintf("n=%d Q=%d", n, numQ), c, items, windows)
		}
	}
}

// TestJoinLeafHookContract runs the join with the toy evenCovers reject on
// bulk-loaded and insert-built trees, single queries and batches in which
// only some queries arm it: checkLeafCovers holds every run, some leaf is
// skipped, the node accesses equal the join's without the hook, and the
// hook removes entry tests rather than adding them.
func TestJoinLeafHookContract(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, bulk := range []bool{true, false} {
		for _, n := range []int{1, 60, 700} {
			items := randomItems(rng, n, 2)
			tr := New(2, WithMaxEntries(6))
			if bulk {
				tr.BulkLoad(items)
			} else {
				for _, it := range items {
					tr.Insert(it.Rect, it.ID)
				}
			}
			for _, numQ := range []int{1, 3} {
				windows := padWindows(numQ, 2)
				_, plain := runBatch(t, tr, windows)
				label := fmt.Sprintf("bulk=%v n=%d Q=%d", bulk, n, numQ)
				c, counts := runBatchLeaf(t, tr, windows, evenCovers)
				skipped := checkLeafCovers(t, label, tr, c, items, windows, counts)
				if n >= 60 && skipped == 0 {
					t.Fatalf("%s: no stream skipped", label)
				}
				if counts.NodeAccesses != plain.NodeAccesses {
					t.Fatalf("%s: %d node accesses with the hook, %d without", label, counts.NodeAccesses, plain.NodeAccesses)
				}
				if n >= 60 && counts.EntriesScanned >= plain.EntriesScanned {
					t.Fatalf("%s: %d entry tests with the hook, %d without", label, counts.EntriesScanned, plain.EntriesScanned)
				}
			}
		}
	}
}

// TestJoinSelfStreamInsertBuilt checks the join against brute force over a
// tree grown by dynamic insertion (non-uniform fills, reinsertion paths),
// deeper than the fuzz seeds' insert-built trees.
func TestJoinSelfStreamInsertBuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	items := randomItems(rng, 700, 2)
	tr := New(2, WithMaxEntries(4))
	for _, it := range items {
		tr.Insert(it.Rect, it.ID)
	}
	for _, numQ := range []int{1, 3} {
		windows := padWindows(numQ, 2)
		c, _ := runBatch(t, tr, windows)
		checkBrute(t, fmt.Sprintf("Q=%d", numQ), c, items, windows)
	}
}

// TestJoinSelfStreamBatchMatchesSingle pins batch composition: every
// query's streams in a batch of Q are exactly (same pairs, same order) its
// streams as a batch of one, every stream matches brute force, and — for
// more than one query — the batch charges strictly fewer node accesses
// than the Q batches of one combined.
func TestJoinSelfStreamBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, n := range []int{1, 40, 400, 1500} {
		for _, numQ := range []int{1, 2, 5} {
			items := randomItems(rng, n, 2)
			tr := New(2, WithMaxEntries(8))
			tr.BulkLoad(items)
			windows := padWindows(numQ, 1.5)
			label := fmt.Sprintf("n=%d Q=%d", n, numQ)

			singleIO := int64(0)
			single := make([]map[int][]int, numQ)
			for k := range windows {
				c, counts := runBatch(t, tr, windows[k:k+1])
				single[k] = c.streams[0]
				singleIO += counts.NodeAccesses
			}

			c, batch := runBatch(t, tr, windows)
			batchIO := batch.NodeAccesses
			checkBrute(t, label, c, items, windows)
			for k := range windows {
				for id, got := range c.streams[k] {
					if fmt.Sprint(got) != fmt.Sprint(single[k][id]) {
						t.Fatalf("%s q=%d id=%d: batch stream %v, batch of one %v",
							label, k, id, got, single[k][id])
					}
				}
			}
			if numQ > 1 && n > 1 && batchIO >= singleIO {
				t.Fatalf("%s: batch join charged %d node accesses, not below the batches of one's %d",
					label, batchIO, singleIO)
			}
		}
	}
}

// TestJoinSelfStreamBatchEarlyStop asserts a Pair returning false truncates
// only that (query, left) stream.
func TestJoinSelfStreamBatchEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	items := randomItems(rng, 120, 2)
	tr := New(2, WithMaxEntries(8))
	tr.BulkLoad(items)
	windows := []WindowFunc{joinWindow(3), joinWindow(3)}
	full := bruteSelfJoin(items, windows[0])

	got := make([]map[int][]int, 2)
	got[0], got[1] = map[int][]int{}, map[int][]int{}
	_, err := tr.JoinSelfStreamBatch(context.Background(), windows, BatchStreamVisitor{
		Pair: func(k, l, r int, _ geom.Rect) bool {
			got[k][l] = append(got[k][l], r)
			return k != 0 || len(got[0][l]) < 2 // query 0 stops after two pairs
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for l, want := range full {
		if len(want) > 2 && len(got[0][l]) != 2 {
			t.Fatalf("left %d: query-0 stream has %d pairs, want truncation at 2", l, len(got[0][l]))
		}
		rest := append([]int{}, got[1][l]...)
		sort.Ints(rest)
		if fmt.Sprint(rest) != fmt.Sprint(want) {
			t.Fatalf("left %d: query-1 stream truncated too: got %v want %v", l, rest, want)
		}
	}
}

// TestJoinSelfStreamBatchCanceled asserts a pre-canceled context stops the
// batch join with the context's error.
func TestJoinSelfStreamBatchCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	items := randomItems(rng, 300, 2)
	tr := New(2, WithMaxEntries(8))
	tr.BulkLoad(items)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pairs := 0
	_, err := tr.JoinSelfStreamBatch(ctx, []WindowFunc{joinWindow(3)}, BatchStreamVisitor{
		Pair: func(k, l, r int, _ geom.Rect) bool { pairs++; return true },
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if pairs != 0 {
		t.Fatalf("canceled join still streamed %d pairs", pairs)
	}
}

// TestJoinSelfStreamBatchCancelMidLeaf asserts the poll is charged per
// stream, not per node: a cancellation inside a single large leaf stops
// the join within one poll stride of streams instead of finishing the
// leaf's every (query, entry) stream.
func TestJoinSelfStreamBatchCancelMidLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	items := randomItems(rng, 200, 2)
	tr := New(2, WithMaxEntries(256))
	tr.BulkLoad(items) // one root leaf
	windows := padWindows(64, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	left := map[int]bool{}
	_, err := tr.JoinSelfStreamBatch(ctx, windows, BatchStreamVisitor{
		Begin: func(k, id int, _ geom.Rect) bool {
			cancel()
			left[id] = true
			return true
		},
		Pair: func(int, int, int, geom.Rect) bool { return true },
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// One stride (ctxutil.DefaultStride units) covers 1024/64 = 16 left
	// entries of a 64-query batch, plus the entry the poll fires before.
	if len(left) > 17 {
		t.Fatalf("canceled join streamed %d of %d left entries", len(left), len(items))
	}
}
