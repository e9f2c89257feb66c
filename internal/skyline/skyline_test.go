package skyline

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/rtree"
)

// ReverseSkyline returns the indices of all reverse skyline points of q,
// testing each live point with its own early-terminating Member window: the
// per-point scan BBRS is checked and benchmarked against.
func (ix *Index) ReverseSkyline(q geom.Point) []int {
	var out []int
	for i := 0; i < ix.Len(); i++ {
		if member, _ := ix.Member(i, q); member {
			out = append(out, i)
		}
	}
	return out
}

func randPts(r *rand.Rand, n, d int, span float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = r.Float64() * span
		}
		pts[i] = p
	}
	return pts
}

// TestFig1Example rebuilds the paper's Fig. 1(a)/(b) semantics on a small
// handcrafted configuration: d, e, g form the reverse skyline while a does
// not because q is outside its dynamic skyline.
func TestHandcraftedReverseSkyline(t *testing.T) {
	q := geom.Point{5, 5}
	pts := []geom.Point{
		{6, 6},   // 0: very close to q -> reverse skyline
		{9, 9},   // 1: dominated w.r.t. itself by 0? |6-9|=3 <= |5-9|=4 yes, strict -> not member
		{1, 9},   // 2: DomRect extent (4,4): is (6,6) inside [ -3..5 x 5..13 ]? dim0: |6-1|=5 > 4 no. member unless someone else dominates.
		{40, 40}, // 3: far away; 0,1,2 all dominate q w.r.t. it -> not member
	}
	want := []int{0, 2}
	got := BruteReverseSkyline(pts, q)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BruteReverseSkyline = %v, want %v", got, want)
	}
}

// TestMembershipDuality verifies the defining equivalence: p is a reverse
// skyline point of q iff q belongs to the dynamic skyline of p over the
// other points plus q itself.
func TestMembershipDuality(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 100; trial++ {
		d := 1 + r.Intn(3)
		pts := randPts(r, 12, d, 100)
		q := randPts(r, 1, d, 100)[0]
		for i, p := range pts {
			others := make([]geom.Point, 0, len(pts)-1)
			for j, o := range pts {
				if j != i {
					others = append(others, o)
				}
			}
			member := IsReverseSkylineMember(p, q, others)
			// Dynamic skyline of p over others ∪ {q}: q's index is len(others).
			all := append(append([]geom.Point{}, others...), q)
			dyn := DynamicSkyline(p, all)
			qInDyn := false
			for _, idx := range dyn {
				if idx == len(others) {
					qInDyn = true
					break
				}
			}
			if member != qInDyn {
				t.Fatalf("duality violated: member=%v qInDyn=%v (p=%v q=%v)", member, qInDyn, p, q)
			}
		}
	}
}

func TestDynamicSkylineBasics(t *testing.T) {
	ref := geom.Point{0, 0}
	pts := []geom.Point{
		{1, 1}, // dominates everything farther out
		{2, 2}, // dominated by (1,1)
		{5, 0.5},
		{0.5, 5},
	}
	got := DynamicSkyline(ref, pts)
	want := []int{0, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DynamicSkyline = %v, want %v", got, want)
	}
	// Duplicates never dominate each other.
	dup := []geom.Point{{3, 3}, {3, 3}}
	if got := DynamicSkyline(ref, dup); len(got) != 2 {
		t.Fatalf("duplicates should both survive: %v", got)
	}
}

func TestIndexMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	for _, d := range []int{2, 3} {
		pts := randPts(r, 400, d, 1000)
		ix := NewIndex(pts, rtree.WithMaxEntries(16))
		for trial := 0; trial < 10; trial++ {
			q := randPts(r, 1, d, 1000)[0]
			want := BruteReverseSkyline(pts, q)
			got := ix.ReverseSkyline(q)
			sort.Ints(got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("d=%d: index %v vs brute %v", d, got, want)
			}
		}
	}
}

func TestDominatorsMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	pts := randPts(r, 300, 2, 1000)
	ix := NewIndex(pts, rtree.WithMaxEntries(8))
	q := geom.Point{500, 500}
	for i := 0; i < len(pts); i += 17 {
		var want []int
		for j, o := range pts {
			if j != i && geom.DynDominates(o, q, pts[i]) {
				want = append(want, j)
			}
		}
		got, _ := ix.Dominators(i, q)
		sort.Ints(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Dominators(%d) = %v, want %v", i, got, want)
		}
		if member, _ := ix.Member(i, q); member != (len(want) == 0) {
			t.Fatalf("Member(%d) = %v inconsistent with %d dominators", i, member, len(want))
		}
	}
}

func TestIndexCounterAndAccessors(t *testing.T) {
	pts := randPts(rand.New(rand.NewSource(64)), 500, 2, 1000)
	ix := NewIndex(pts, rtree.WithMaxEntries(8))
	if _, n := ix.Member(0, geom.Point{500, 500}); n == 0 {
		t.Fatal("Member should cost node accesses")
	}
	if _, n := ix.Dominators(0, geom.Point{500, 500}); n == 0 {
		t.Fatal("Dominators should cost node accesses")
	}
	if ix.Len() != 500 || !ix.Point(499).Equal(pts[499]) {
		t.Fatal("accessors broken")
	}
	if ix.Tree() == nil {
		t.Fatal("Tree accessor broken")
	}
}

func TestNewIndexValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty": func() { NewIndex(nil) },
		"mixed": func() { NewIndex([]geom.Point{{1, 2}, {1, 2, 3}}) },
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
