package skyline

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/rtree"
)

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
		for i, p := range ix.Points() {
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
		if brute := BruteReverseSkyline(ix.Points(), q); !reflect.DeepEqual(brute, mapped) {
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
