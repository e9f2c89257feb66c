package rtree

import (
	"math/rand"
	"testing"

	"github.com/crsky/crsky/internal/geom"
)

// All visits every data entry in the tree (a test helper: production code
// always searches by window).
func (t *Tree) All(visit Visitor) {
	if t.size == 0 {
		return
	}
	var walk func(n *node) bool
	walk = func(n *node) bool {
		for i := range n.entries {
			e := &n.entries[i]
			if n.leaf {
				if !visit(e.id, e.rect) {
					return false
				}
			} else if !walk(e.child) {
				return false
			}
		}
		return true
	}
	walk(t.root)
}

// checkInvariants verifies structural R-tree invariants: uniform leaf depth,
// parent MBRs covering children, fanout bounds, and size accounting.
func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	leafDepth := -1
	count := 0
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		if n != tr.root {
			if len(n.entries) < tr.minEntries {
				t.Fatalf("node underflow: %d < %d", len(n.entries), tr.minEntries)
			}
		}
		if len(n.entries) > tr.maxEntries {
			t.Fatalf("node overflow: %d > %d", len(n.entries), tr.maxEntries)
		}
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				t.Fatalf("leaves at depths %d and %d", leafDepth, depth)
			}
			count += len(n.entries)
			return
		}
		for i := range n.entries {
			e := &n.entries[i]
			childMBR := e.child.mbr()
			if !e.rect.ContainsRect(childMBR) {
				t.Fatalf("parent MBR %v does not contain child MBR %v", e.rect, childMBR)
			}
			walk(e.child, depth+1)
		}
	}
	if tr.size > 0 {
		walk(tr.root, 1)
		if leafDepth != tr.height {
			t.Fatalf("height %d but leaves at depth %d", tr.height, leafDepth)
		}
	}
	if count != tr.size {
		t.Fatalf("size %d but counted %d entries", tr.size, count)
	}
}

func randData(r *rand.Rand, n, d int) []Item {
	items := make([]Item, n)
	for i := range items {
		c := make(geom.Point, d)
		for j := range c {
			c[j] = r.Float64() * 1000
		}
		ext := make(geom.Point, d)
		for j := range ext {
			ext[j] = c[j] + r.Float64()*10
		}
		items[i] = Item{Rect: geom.NewRect(c, ext), ID: i}
	}
	return items
}

func bruteSearch(items []Item, windows []geom.Rect) map[int]bool {
	hit := map[int]bool{}
	for _, it := range items {
		for _, w := range windows {
			if it.Rect.Intersects(w) {
				hit[it.ID] = true
				break
			}
		}
	}
	return hit
}

func collectSearch(tr *Tree, windows []geom.Rect) map[int]bool {
	got := map[int]bool{}
	tr.SearchAny(windows, func(id int, r geom.Rect) bool {
		if got[id] {
			panic("duplicate visit")
		}
		got[id] = true
		return true
	})
	return got
}

func TestNewFanoutFromPageSize(t *testing.T) {
	tr := New(3)
	// entry = 16*3+8 = 56 bytes; (4096-24)/56 = 72.
	if tr.MaxEntries() != 72 {
		t.Errorf("MaxEntries = %d, want 72", tr.MaxEntries())
	}
	if tr.MinEntries() != 28 {
		t.Errorf("MinEntries = %d, want 28", tr.MinEntries())
	}
	tr2 := New(2, WithPageSize(512))
	if tr2.MaxEntries() != (512-24)/40 {
		t.Errorf("MaxEntries = %d", tr2.MaxEntries())
	}
	if New(5, WithMaxEntries(6)).MaxEntries() != 6 {
		t.Error("WithMaxEntries not honored")
	}
}

func TestInsertSearchSmall(t *testing.T) {
	tr := New(2, WithMaxEntries(4))
	pts := []geom.Point{{1, 1}, {2, 2}, {3, 3}, {8, 8}, {9, 9}}
	for i, p := range pts {
		tr.Insert(geom.PointRect(p), i)
	}
	if tr.Len() != 5 {
		t.Fatalf("Len = %d", tr.Len())
	}
	checkInvariants(t, tr)
	got := collectSearch(tr, []geom.Rect{geom.NewRect(geom.Point{0, 0}, geom.Point{4, 4})})
	for _, want := range []int{0, 1, 2} {
		if !got[want] {
			t.Errorf("missing id %d", want)
		}
	}
	if got[3] || got[4] {
		t.Error("ids outside window returned")
	}
}

func TestInsertRandomAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, d := range []int{2, 3, 4} {
		items := randData(r, 600, d)
		tr := New(d, WithMaxEntries(8))
		for _, it := range items {
			tr.Insert(it.Rect, it.ID)
		}
		checkInvariants(t, tr)
		for trial := 0; trial < 40; trial++ {
			nw := 1 + r.Intn(3)
			windows := make([]geom.Rect, nw)
			for i := range windows {
				a := make(geom.Point, d)
				b := make(geom.Point, d)
				for j := 0; j < d; j++ {
					a[j] = r.Float64() * 1000
					b[j] = a[j] + r.Float64()*300
				}
				windows[i] = geom.NewRect(a, b)
			}
			want := bruteSearch(items, windows)
			got := collectSearch(tr, windows)
			if len(got) != len(want) {
				t.Fatalf("d=%d: got %d hits, want %d", d, len(got), len(want))
			}
			for id := range want {
				if !got[id] {
					t.Fatalf("d=%d: missing id %d", d, id)
				}
			}
		}
	}
}

func TestBulkLoadEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	items := randData(r, 2000, 3)
	tr := New(3, WithMaxEntries(16))
	tr.BulkLoad(items)
	if tr.Len() != len(items) {
		t.Fatalf("Len = %d", tr.Len())
	}
	checkInvariantsBulk(t, tr)
	for trial := 0; trial < 30; trial++ {
		a := geom.Point{r.Float64() * 1000, r.Float64() * 1000, r.Float64() * 1000}
		b := a.Add(geom.Point{r.Float64() * 200, r.Float64() * 200, r.Float64() * 200})
		w := []geom.Rect{geom.NewRect(a, b)}
		want := bruteSearch(items, w)
		got := collectSearch(tr, w)
		if len(got) != len(want) {
			t.Fatalf("got %d hits, want %d", len(got), len(want))
		}
	}
	// Bulk loading an empty set yields an empty, usable tree.
	tr.BulkLoad(nil)
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatal("empty bulk load should reset the tree")
	}
	tr.Insert(geom.PointRect(geom.Point{1, 2, 3}), 7)
	if tr.Len() != 1 {
		t.Fatal("insert after empty bulk load failed")
	}
}

// checkInvariantsBulk relaxes the min-fill invariant: STR packs tails that
// may fall below the dynamic minimum fill, which is standard for bulk loads.
func checkInvariantsBulk(t *testing.T, tr *Tree) {
	t.Helper()
	leafDepth := -1
	count := 0
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		if len(n.entries) > tr.maxEntries {
			t.Fatalf("node overflow: %d > %d", len(n.entries), tr.maxEntries)
		}
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				t.Fatalf("leaves at depths %d and %d", leafDepth, depth)
			}
			count += len(n.entries)
			return
		}
		for i := range n.entries {
			e := &n.entries[i]
			if !e.rect.ContainsRect(e.child.mbr()) {
				t.Fatal("parent MBR does not contain child")
			}
			walk(e.child, depth+1)
		}
	}
	if tr.size > 0 {
		walk(tr.root, 1)
	}
	if count != tr.size {
		t.Fatalf("size %d but counted %d", tr.size, count)
	}
}

func TestDelete(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	items := randData(r, 400, 2)
	tr := New(2, WithMaxEntries(6))
	for _, it := range items {
		tr.Insert(it.Rect, it.ID)
	}
	// Delete a random half.
	perm := r.Perm(len(items))
	removed := map[int]bool{}
	for _, idx := range perm[:200] {
		if !tr.Delete(items[idx].Rect, items[idx].ID) {
			t.Fatalf("Delete(%d) failed", items[idx].ID)
		}
		removed[items[idx].ID] = true
	}
	if tr.Len() != 200 {
		t.Fatalf("Len = %d, want 200", tr.Len())
	}
	checkInvariants(t, tr)
	// Deleted entries are gone; remaining entries are findable.
	all := map[int]bool{}
	tr.All(func(id int, _ geom.Rect) bool { all[id] = true; return true })
	for id := range removed {
		if all[id] {
			t.Fatalf("deleted id %d still present", id)
		}
	}
	if len(all) != 200 {
		t.Fatalf("All visited %d entries", len(all))
	}
	// Deleting a non-existent entry reports false.
	if tr.Delete(geom.NewRect(geom.Point{-5, -5}, geom.Point{-4, -4}), 99999) {
		t.Error("Delete of absent entry returned true")
	}
	// Drain completely.
	for _, idx := range perm[200:] {
		if !tr.Delete(items[idx].Rect, items[idx].ID) {
			t.Fatalf("drain Delete(%d) failed", items[idx].ID)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after drain", tr.Len())
	}
	tr.Insert(geom.PointRect(geom.Point{1, 1}), 1)
	if tr.Len() != 1 {
		t.Fatal("insert after drain failed")
	}
}

func TestNodeAccessCounting(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	items := randData(r, 3000, 2)
	tr := New(2, WithMaxEntries(16))
	tr.BulkLoad(items)

	small := geom.NewRect(geom.Point{0, 0}, geom.Point{50, 50})
	smallIO := tr.Search(small, func(int, geom.Rect) bool { return true })
	if smallIO < int64(tr.Height()) {
		t.Fatalf("small window I/O %d below height %d", smallIO, tr.Height())
	}

	big := geom.NewRect(geom.Point{0, 0}, geom.Point{1000, 1000})
	bigIO := tr.Search(big, func(int, geom.Rect) bool { return true })
	if bigIO <= smallIO {
		t.Fatalf("big window I/O %d should exceed small window %d", bigIO, smallIO)
	}
	// The whole-domain window visits every node exactly once.
	if nodes := int64(tr.Stats().Nodes); bigIO != nodes {
		t.Fatalf("big window I/O %d, tree has %d nodes", bigIO, nodes)
	}
}

func TestSearchEarlyStop(t *testing.T) {
	tr := New(2, WithMaxEntries(4))
	for i := 0; i < 50; i++ {
		tr.Insert(geom.PointRect(geom.Point{float64(i), float64(i)}), i)
	}
	window := geom.NewRect(geom.Point{0, 0}, geom.Point{100, 100})
	visits := 0
	stopped := tr.Search(window, func(int, geom.Rect) bool {
		visits++
		return visits < 7
	})
	if visits != 7 {
		t.Errorf("visits = %d, want 7", visits)
	}
	// An aborted search stops descending: it reads fewer nodes than the
	// full one.
	if full := tr.Search(window, func(int, geom.Rect) bool { return true }); stopped >= full {
		t.Errorf("aborted search made %d node accesses, the full search %d", stopped, full)
	}
}

func TestInvalidInputsPanic(t *testing.T) {
	tr := New(2)
	for name, fn := range map[string]func(){
		"bad dims":  func() { tr.Insert(geom.PointRect(geom.Point{1, 2, 3}), 0) },
		"invalid":   func() { tr.Insert(geom.Rect{Min: geom.Point{2, 2}, Max: geom.Point{1, 1}}, 0) },
		"zero dims": func() { New(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMixedInsertDeleteStress(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	tr := New(3, WithMaxEntries(5))
	live := map[int]Item{}
	nextID := 0
	for round := 0; round < 2000; round++ {
		if len(live) == 0 || r.Float64() < 0.6 {
			it := randData(r, 1, 3)[0]
			it.ID = nextID
			nextID++
			tr.Insert(it.Rect, it.ID)
			live[it.ID] = it
		} else {
			// Delete a random live entry.
			var victim Item
			for _, v := range live {
				victim = v
				break
			}
			if !tr.Delete(victim.Rect, victim.ID) {
				t.Fatalf("round %d: delete failed", round)
			}
			delete(live, victim.ID)
		}
	}
	if tr.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(live))
	}
	checkInvariants(t, tr)
	got := map[int]bool{}
	tr.All(func(id int, _ geom.Rect) bool { got[id] = true; return true })
	for id := range live {
		if !got[id] {
			t.Fatalf("live id %d missing", id)
		}
	}
}

func TestBounds(t *testing.T) {
	tr := New(2)
	if _, ok := tr.Bounds(); ok {
		t.Fatal("empty tree should have no bounds")
	}
	tr.Insert(geom.PointRect(geom.Point{1, 2}), 0)
	tr.Insert(geom.PointRect(geom.Point{5, -3}), 1)
	b, ok := tr.Bounds()
	if !ok || !b.Min.Equal(geom.Point{1, -3}) || !b.Max.Equal(geom.Point{5, 2}) {
		t.Fatalf("Bounds = %v, %v", b, ok)
	}
}
