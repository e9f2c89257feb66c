package rtree

import (
	"fmt"
	"math"
	"testing"

	"github.com/crsky/crsky/internal/geom"
)

// FuzzJoinSelfStream throws byte-derived rectangle sets — degenerate rects,
// zero-area MBRs, duplicates, coincident corners — at the batch self-join
// with one and three windows, serially and on a three-worker pool, and
// checks every stream against the brute-force all-pairs reference.
func FuzzJoinSelfStream(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(3), false)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint8(1), true) // coincident zero-area rects
	f.Add([]byte{255, 0, 255, 0, 128, 128, 7, 9}, uint8(5), false)
	f.Add([]byte{10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, uint8(2), true)

	f.Fuzz(func(t *testing.T, raw []byte, fanRaw uint8, bulk bool) {
		if len(raw) < 4 {
			return
		}
		// Each 4-byte group becomes one rect: two corner coordinates plus
		// extents, quantized so exact duplicates and touching edges occur.
		n := len(raw) / 4
		if n > 120 {
			n = 120
		}
		items := make([]Item, n)
		for i := 0; i < n; i++ {
			b := raw[i*4 : i*4+4]
			x := float64(b[0]) / 4
			y := float64(b[1]) / 4
			w := float64(b[2]%8) / 4 // 0 = degenerate (zero-area) rect
			h := float64(b[3]%8) / 4
			items[i] = Item{
				Rect: geom.Rect{Min: geom.Point{x, y}, Max: geom.Point{x + w, y + h}},
				ID:   i,
			}
		}
		tr := New(2, WithMaxEntries(4+int(fanRaw)%12))
		if bulk {
			tr.BulkLoad(items)
		} else {
			for _, it := range items {
				tr.Insert(it.Rect, it.ID)
			}
		}

		// Pads 0, 0.5, …, 2 (from fanRaw), then +1 per extra window.
		pad := float64(fanRaw%5) / 2
		for _, numQ := range []int{1, 3} {
			windows := make([]WindowFunc, numQ)
			for k := range windows {
				windows[k] = joinWindow(pad + float64(k))
			}
			for _, workers := range []int{1, 3} {
				c := runBatch(t, tr, windows, workers)
				checkBrute(t, fmt.Sprintf("Q=%d workers=%d", numQ, workers), c, items, windows)
			}
		}
	})
}

// FuzzInsertSearch cross-checks dynamic insertion + window search against a
// linear scan under byte-derived degenerate geometry.
func FuzzInsertSearch(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6}, uint16(1234))
	f.Fuzz(func(t *testing.T, raw []byte, winRaw uint16) {
		if len(raw) < 2 {
			return
		}
		n := len(raw) / 2
		if n > 150 {
			n = 150
		}
		tr := New(2, WithMaxEntries(4))
		pts := make([]geom.Point, n)
		for i := 0; i < n; i++ {
			pts[i] = geom.Point{float64(raw[i*2]) / 8, float64(raw[i*2+1]) / 8}
			tr.Insert(geom.PointRect(pts[i]), i)
		}
		lo := float64(winRaw&0xff) / 8
		hi := lo + float64(winRaw>>8)/8
		w := geom.Rect{Min: geom.Point{lo, lo}, Max: geom.Point{hi, hi}}
		if !w.Valid() || math.IsNaN(hi) {
			return
		}
		got := map[int]bool{}
		tr.Search(w, func(id int, _ geom.Rect) bool { got[id] = true; return true })
		for i, p := range pts {
			if w.ContainsPoint(p) != got[i] {
				t.Fatalf("point %d (%v) window %v: scan %v, tree %v",
					i, p, w, w.ContainsPoint(p), got[i])
			}
		}
	})
}
