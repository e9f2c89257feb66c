package rtree

import (
	"math/rand"
	"testing"

	"github.com/crsky/crsky/internal/geom"
)

func benchTree(n, d int) (*Tree, []Item) {
	r := rand.New(rand.NewSource(1))
	items := randData(r, n, d)
	tr := New(d)
	tr.BulkLoad(items)
	return tr, items
}

func BenchmarkInsert(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	items := randData(r, b.N, 3)
	tr := New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(items[i].Rect, items[i].ID)
	}
}

func BenchmarkBulkLoad100K(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	items := randData(r, 100_000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New(3)
		tr.BulkLoad(items)
	}
}

func BenchmarkSearchWindow(b *testing.B) {
	tr, _ := benchTree(100_000, 3)
	w := geom.NewRect(geom.Point{400, 400, 400}, geom.Point{600, 600, 600})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Search(w, func(int, geom.Rect) bool { return true })
	}
}

func BenchmarkSearchMultiWindow(b *testing.B) {
	tr, _ := benchTree(100_000, 3)
	windows := []geom.Rect{
		geom.NewRect(geom.Point{100, 100, 100}, geom.Point{200, 200, 200}),
		geom.NewRect(geom.Point{400, 400, 400}, geom.Point{550, 550, 550}),
		geom.NewRect(geom.Point{800, 100, 500}, geom.Point{900, 250, 650}),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.SearchAny(windows, func(int, geom.Rect) bool { return true })
	}
}
