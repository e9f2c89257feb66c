package rtree

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/stats"
)

// joinWindow is the test window: a symmetric outward inflation, monotone
// under rectangle growth as JoinSelfStreamBatch requires.
func joinWindow(pad float64) WindowFunc {
	return func(r geom.Rect) geom.Rect {
		w := r.Clone()
		for i := range w.Min {
			w.Min[i] -= pad
			w.Max[i] += pad
		}
		return w
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
		w := window(a.Rect)
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

// batchCollect records the per-query grouped streams of a batch join.
// Every worker gets its own visitor, which asserts the per-query
// Begin/Pair*/End contract on the groups that worker reports.
type batchCollect struct {
	t       *testing.T
	mu      sync.Mutex
	streams []map[int][]int // per query: left id -> right ids in stream order
	begun   []map[int]int   // per query: left id -> Begin calls
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
		Begin: func(k, id int, _ geom.Rect) bool {
			if open {
				c.t.Errorf("Begin(q%d,%d) while stream q%d/%d still open", k, id, curQ, cur)
			}
			open, curQ, cur = true, k, id
			c.mu.Lock()
			c.begun[k][id]++
			if _, ok := c.streams[k][id]; !ok {
				c.streams[k][id] = []int{}
			}
			c.mu.Unlock()
			return true
		},
		Pair: func(k, leftID, rightID int, _ geom.Rect) bool {
			if !open || leftID != cur || k != curQ {
				c.t.Errorf("Pair(q%d,%d,%d) outside its group (current q%d/%d)", k, leftID, rightID, curQ, cur)
			}
			c.mu.Lock()
			c.streams[k][leftID] = append(c.streams[k][leftID], rightID)
			c.mu.Unlock()
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

// runBatch joins tr under windows and returns the collected streams.
func runBatch(t *testing.T, tr *Tree, windows []WindowFunc, workers int) *batchCollect {
	t.Helper()
	c := newBatchCollect(t, len(windows))
	if err := tr.JoinSelfStreamBatch(context.Background(), windows, workers, c.visitor); err != nil {
		t.Fatal(err)
	}
	return c
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
			for _, workers := range []int{1, 3} {
				c := runBatch(t, tr, windows, workers)
				checkBrute(t, fmt.Sprintf("n=%d Q=%d workers=%d", n, numQ, workers), c, items, windows)
			}
		}
	}
}

// TestJoinSelfStreamParallelMatchesSerial pins the worker pool: identical
// per-(query, left) match sets to brute force, every left entry visited
// exactly once per query across the pool's visitors, node-access totals
// identical to the serial join, and the grouping contract holding inside
// every worker.
func TestJoinSelfStreamParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 30, 500, 2000} {
		items := randomItems(rng, n, 3)
		tr := New(3, WithMaxEntries(6))
		tr.BulkLoad(items)
		var io stats.Counter
		tr.SetCounter(&io)
		for _, numQ := range []int{1, 3} {
			windows := padWindows(numQ, 4)
			io.Reset()
			runBatch(t, tr, windows, 1)
			serialIO := io.Value()
			for _, workers := range []int{2, 3, 8} {
				io.Reset()
				c := runBatch(t, tr, windows, workers)
				parallelIO := io.Value()
				label := fmt.Sprintf("n=%d Q=%d workers=%d", n, numQ, workers)
				checkBrute(t, label, c, items, windows)
				if parallelIO != serialIO {
					t.Fatalf("%s: parallel charges %d node accesses, serial %d", label, parallelIO, serialIO)
				}
			}
		}
	}
}

// TestJoinSelfStreamParallelEarlyStop checks that a Pair returning false
// truncates only that (query, left) stream, also under the pool.
func TestJoinSelfStreamParallelEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	items := randomItems(rng, 300, 2)
	tr := New(2, WithMaxEntries(5))
	tr.BulkLoad(items)
	windows := padWindows(3, 6)

	var mu sync.Mutex
	counts := make([]map[int]int, len(windows))
	for k := range counts {
		counts[k] = map[int]int{}
	}
	err := tr.JoinSelfStreamBatch(context.Background(), windows, 4, func() BatchStreamVisitor {
		return BatchStreamVisitor{
			Pair: func(k, leftID, _ int, _ geom.Rect) bool {
				mu.Lock()
				counts[k][leftID]++
				c := counts[k][leftID]
				mu.Unlock()
				return c < 2 // stop each stream after two matches
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for k, window := range windows {
		for id, full := range bruteSelfJoin(items, window) {
			limit := len(full)
			if limit > 2 {
				limit = 2
			}
			if counts[k][id] != limit {
				t.Fatalf("q=%d left %d: %d pairs reported, want %d", k, id, counts[k][id], limit)
			}
		}
	}
}

// TestJoinSelfStreamParallelInsertBuilt exercises the pool over a tree grown
// by dynamic insertion (non-uniform fills, reinsertion paths).
func TestJoinSelfStreamParallelInsertBuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	items := randomItems(rng, 700, 2)
	tr := New(2, WithMaxEntries(4))
	for _, it := range items {
		tr.Insert(it.Rect, it.ID)
	}
	for _, numQ := range []int{1, 3} {
		windows := padWindows(numQ, 2)
		c := runBatch(t, tr, windows, 3)
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
			for _, workers := range []int{1, 4} {
				items := randomItems(rng, n, 2)
				tr := New(2, WithMaxEntries(8))
				tr.BulkLoad(items)
				var io stats.Counter
				tr.SetCounter(&io)
				windows := padWindows(numQ, 1.5)
				label := fmt.Sprintf("n=%d Q=%d workers=%d", n, numQ, workers)

				singleIO := int64(0)
				single := make([]map[int][]int, numQ)
				for k := range windows {
					io.Reset()
					single[k] = runBatch(t, tr, windows[k:k+1], workers).streams[0]
					singleIO += io.Value()
				}

				io.Reset()
				c := runBatch(t, tr, windows, workers)
				batchIO := io.Value()
				checkBrute(t, label, c, items, windows)
				for k := range windows {
					for id, got := range c.streams[k] {
						if fmt.Sprint(got) != fmt.Sprint(single[k][id]) {
							t.Fatalf("%s q=%d id=%d: batch stream %v, batch of one %v",
								label, k, id, got, single[k][id])
						}
					}
				}
				if workers == 1 && numQ > 1 && n > 1 && batchIO >= singleIO {
					t.Fatalf("%s: batch join charged %d node accesses, not below the batches of one's %d",
						label, batchIO, singleIO)
				}
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
	err := tr.JoinSelfStreamBatch(context.Background(), windows, 1, func() BatchStreamVisitor {
		return BatchStreamVisitor{
			Pair: func(k, l, r int, _ geom.Rect) bool {
				got[k][l] = append(got[k][l], r)
				return k != 0 || len(got[0][l]) < 2 // query 0 stops after two pairs
			},
		}
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
	err := tr.JoinSelfStreamBatch(ctx, []WindowFunc{joinWindow(3)}, 1, func() BatchStreamVisitor {
		return BatchStreamVisitor{Pair: func(k, l, r int, _ geom.Rect) bool { pairs++; return true }}
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
	err := tr.JoinSelfStreamBatch(ctx, windows, 1, func() BatchStreamVisitor {
		return BatchStreamVisitor{
			Begin: func(k, id int, _ geom.Rect) bool {
				cancel()
				left[id] = true
				return true
			},
			Pair: func(int, int, int, geom.Rect) bool { return true },
		}
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
