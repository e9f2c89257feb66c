package rtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/crsky/crsky/internal/geom"
)

// TestSearchQuick drives insert + window search against a linear scan with
// testing/quick-generated point sets and windows.
func TestSearchQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8, winRaw [4]int16) bool {
		n := int(nRaw)%120 + 1
		r := rand.New(rand.NewSource(seed))
		tr := New(2, WithMaxEntries(4+int(nRaw)%8))
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{float64(r.Intn(100)), float64(r.Intn(100))}
			tr.Insert(geom.PointRect(pts[i]), i)
		}
		w := geom.NewRect(
			geom.Point{float64(winRaw[0] % 100), float64(winRaw[1] % 100)},
			geom.Point{float64(winRaw[2] % 100), float64(winRaw[3] % 100)},
		)
		got := map[int]bool{}
		tr.Search(w, func(id int, _ geom.Rect) bool {
			got[id] = true
			return true
		})
		for i, p := range pts {
			if w.ContainsPoint(p) != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDeleteQuick: inserting then deleting arbitrary subsets preserves
// exactly the survivors.
func TestDeleteQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8, mask uint64) bool {
		n := int(nRaw)%60 + 1
		r := rand.New(rand.NewSource(seed))
		tr := New(3, WithMaxEntries(5))
		items := make([]Item, n)
		for i := range items {
			p := geom.Point{r.Float64() * 50, r.Float64() * 50, r.Float64() * 50}
			items[i] = Item{Rect: geom.PointRect(p), ID: i}
			tr.Insert(items[i].Rect, i)
		}
		survivors := map[int]bool{}
		for i := range items {
			if mask&(1<<uint(i%64)) != 0 {
				if !tr.Delete(items[i].Rect, items[i].ID) {
					return false
				}
			} else {
				survivors[i] = true
			}
		}
		if tr.Len() != len(survivors) {
			return false
		}
		seen := map[int]bool{}
		tr.All(func(id int, _ geom.Rect) bool {
			seen[id] = true
			return true
		})
		if len(seen) != len(survivors) {
			return false
		}
		for id := range survivors {
			if !seen[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
