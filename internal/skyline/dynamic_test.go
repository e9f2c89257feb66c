package skyline

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/rtree"
)

// points lists ix's point slots in order, tombstones as nil.
func points(ix *Index) []geom.Point {
	pts := make([]geom.Point, ix.Len())
	for i := range pts {
		pts[i] = ix.Point(i)
	}
	return pts
}

func TestInsertDeleteConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(181))
	pts := randPts(r, 200, 2, 1000)
	ix := NewIndex(pts, rtree.WithMaxEntries(8))
	q := geom.Point{500, 500}

	// Insert 100 more points; results must match a fresh brute force over
	// the live set at every step (sampled).
	for i := 0; i < 100; i++ {
		p := randPts(r, 1, 2, 1000)[0]
		id := ix.Insert(p)
		if id != 200+i {
			t.Fatalf("Insert returned %d, want %d", id, 200+i)
		}
	}
	if ix.Live() != 300 {
		t.Fatalf("Live = %d", ix.Live())
	}

	livePts := func() ([]geom.Point, []int) {
		var ps []geom.Point
		var idx []int
		for i, p := range points(ix) {
			if p != nil {
				ps = append(ps, p)
				idx = append(idx, i)
			}
		}
		return ps, idx
	}

	check := func() {
		t.Helper()
		ps, idx := livePts()
		want := BruteReverseSkyline(ps, q)
		mapped := make([]int, len(want))
		for i, w := range want {
			mapped[i] = idx[w]
		}
		got := ix.ReverseSkyline(q)
		if !reflect.DeepEqual(got, mapped) {
			t.Fatalf("ReverseSkyline %v, want %v", got, mapped)
		}
		if brute := BruteReverseSkyline(points(ix), q); !reflect.DeepEqual(brute, mapped) {
			t.Fatalf("BruteReverseSkyline over the tombstoned points %v, want %v", brute, mapped)
		}
		bbrs := ix.ReverseSkylineBBRS(q)
		if !reflect.DeepEqual(bbrs, mapped) {
			t.Fatalf("BBRS %v, want %v", bbrs, mapped)
		}
	}
	check()

	// Delete a third of the points, including some of the inserted ones.
	perm := r.Perm(300)
	for _, i := range perm[:100] {
		if err := ix.Delete(i); err != nil {
			t.Fatalf("Delete(%d): %v", i, err)
		}
	}
	if ix.Live() != 200 {
		t.Fatalf("Live = %d after deletes", ix.Live())
	}
	check()

	// Tombstone semantics.
	victim := perm[0]
	if !ix.Deleted(victim) {
		t.Fatal("Deleted should report the tombstone")
	}
	if err := ix.Delete(victim); err == nil {
		t.Fatal("double delete should fail")
	}
	if member, _ := ix.Member(victim, q); member {
		t.Fatal("tombstone must not be a member")
	}
	if doms, _ := ix.Dominators(victim, q); doms != nil {
		t.Fatal("tombstone must have no dominators")
	}
	if err := ix.Delete(-1); err == nil {
		t.Fatal("out-of-range delete should fail")
	}
	if err := ix.Delete(999); err == nil {
		t.Fatal("out-of-range delete should fail")
	}
}

func TestInsertDimMismatchPanics(t *testing.T) {
	ix := NewIndex([]geom.Point{{1, 2}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ix.Insert(geom.Point{1, 2, 3})
}

// TestCloneCOWChainIsolation builds a version tree of copy-on-write
// generations over a base that fills three chunks and all but three points
// of a fourth. Each generation clones a random earlier one (the newest half
// the time, so lineages grow long) and makes one Insert or Delete; every
// generation is kept and checked at the end against its own expected point
// list. Siblings writing the same chunk, or a write reaching its parent,
// would show up as a wrong Point, Deleted or reverse skyline, so a write
// that skipped its chunk copy (or a clone that shared its spine) fails.
func TestCloneCOWChainIsolation(t *testing.T) {
	r := rand.New(rand.NewSource(271))
	base := randPts(r, 4*chunkSize-3, 2, 1000)
	q := geom.Point{500, 500}
	type gen struct {
		ix   *Index
		want []geom.Point
	}
	gens := []gen{{ix: NewIndex(base), want: base}}
	// The base slice is the caller's: no write may ever reach it.
	baseCopy := slices.Clone(base)

	var opened, delFirst, delMiddle, delLast bool
	for len(gens) < 241 {
		parent := gens[len(gens)-1]
		if r.Intn(2) == 0 {
			parent = gens[r.Intn(len(gens))]
		}
		ix := parent.ix.CloneCOW()
		want := slices.Clone(parent.want)
		if r.Intn(5) < 2 {
			p := randPts(r, 1, 2, 1000)[0]
			if len(want)%chunkSize == 0 {
				opened = true
			}
			if id := ix.Insert(p); id != len(want) {
				t.Fatalf("generation %d: Insert returned %d, want %d", len(gens), id, len(want))
			}
			want = append(want, p)
		} else {
			// Aim at the first, a middle or the last chunk in turn.
			last := (len(want) - 1) >> chunkBits
			var c int
			switch r.Intn(3) {
			case 0:
				c = 0
			case 1:
				c = 1 + r.Intn(last-1)
			default:
				c = last
			}
			lo, hi := c*chunkSize, min((c+1)*chunkSize, len(want))
			i := lo + r.Intn(hi-lo)
			if want[i] == nil {
				continue
			}
			switch {
			case c == 0:
				delFirst = true
			case c == last:
				delLast = true
			default:
				delMiddle = true
			}
			if err := ix.Delete(i); err != nil {
				t.Fatalf("generation %d: Delete(%d): %v", len(gens), i, err)
			}
			want[i] = nil
		}
		gens = append(gens, gen{ix: ix, want: want})
	}
	if !opened || !delFirst || !delMiddle || !delLast {
		t.Fatalf("chain missed a case: opened a chunk %v, deleted in first %v, middle %v, last chunk %v",
			opened, delFirst, delMiddle, delLast)
	}
	for g, gn := range gens {
		ix, want := gn.ix, gn.want
		if ix.Len() != len(want) {
			t.Fatalf("generation %d: Len %d, want %d", g, ix.Len(), len(want))
		}
		live := 0
		for i, p := range want {
			if ix.Deleted(i) != (p == nil) || !ix.Point(i).Equal(p) {
				t.Fatalf("generation %d: slot %d holds %v (deleted %v), want %v", g, i, ix.Point(i), ix.Deleted(i), p)
			}
			if p != nil {
				live++
			}
		}
		if ix.Live() != live {
			t.Fatalf("generation %d: Live %d, want %d", g, ix.Live(), live)
		}
		brute := BruteReverseSkyline(want, q)
		if got := ix.ReverseSkylineBBRS(q); !slices.Equal(got, brute) {
			t.Fatalf("generation %d: BBRS %v, brute force %v", g, got, brute)
		}
	}
	for i, p := range base {
		if !p.Equal(baseCopy[i]) {
			t.Fatalf("base slot %d rewritten to %v", i, p)
		}
	}
}
