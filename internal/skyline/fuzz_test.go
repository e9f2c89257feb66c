package skyline

import (
	"context"
	"slices"
	"testing"

	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/rtree"
)

// FuzzBBRS throws small byte-derived point sets at the BBRS batch on a
// fanout-4 tree: coordinates on a 16-step grid, so points share the query
// points' axes, duplicate each other and sit exactly on a query point, and
// about a quarter of the points deleted through Delete. Batches of one to
// four queries (on the grid or half a step off it) must answer exactly
// BruteReverseSkyline, and must verify exactly the candidates of their
// one-point calls; a batch of two or more on a non-empty index must charge
// strictly fewer node accesses than those calls.
func FuzzBBRS(f *testing.F) {
	f.Add([]byte{5, 5, 6, 6, 9, 9, 15, 15}, []byte{10, 10}, uint8(0))                 // a point at q
	f.Add([]byte{3, 7, 3, 7, 3, 7, 5, 2, 5, 9, 1, 4}, []byte{6, 14, 10, 4}, uint8(1)) // duplicates, q on data axes
	f.Add([]byte{1, 1, 2, 200, 3, 3, 4, 250}, []byte{4, 4, 9, 9, 0, 0}, uint8(2))     // tombstones
	f.Add([]byte{7, 0xc7, 8, 0xc8}, []byte{14, 16, 1, 1}, uint8(3))                   // every point deleted
	many := make([]byte, 96)
	for i := range many {
		many[i] = byte(i * 37)
	}
	f.Add(many, []byte{15, 15, 3, 28, 30, 1, 16, 16}, uint8(3))

	f.Fuzz(func(t *testing.T, raw, qraw []byte, nqRaw uint8) {
		n := min(len(raw)/2, 48)
		if n == 0 || len(qraw) < 2 {
			return
		}
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{float64(raw[2*i] % 16), float64(raw[2*i+1] % 16)}
		}
		ix := NewIndex(pts, rtree.WithMaxEntries(4))
		for i := range pts {
			if raw[2*i+1] >= 0xc0 {
				if err := ix.Delete(i); err != nil {
					t.Fatal(err)
				}
			}
		}
		live := make([]geom.Point, ix.Len())
		for i := range live {
			live[i] = ix.Point(i)
		}
		qs := make([]geom.Point, min(int(nqRaw%4)+1, len(qraw)/2))
		for k := range qs {
			qs[k] = geom.Point{float64(qraw[2*k]%32) / 2, float64(qraw[2*k+1]%32) / 2}
		}

		ctx := context.Background()
		got, st, err := ix.ReverseSkylineBBRSBatch(ctx, qs, nil)
		if err != nil {
			t.Fatal(err)
		}
		var single BBRSStats
		for k, q := range qs {
			want := BruteReverseSkyline(live, q)
			if !slices.Equal(got[k], want) {
				t.Fatalf("q#%d %v: batch %v, brute %v", k, q, got[k], want)
			}
			one, ost, _ := ix.ReverseSkylineBBRSBatch(ctx, []geom.Point{q}, nil)
			if !slices.Equal(one[0], want) {
				t.Fatalf("q#%d %v: one-point call %v, brute %v", k, q, one[0], want)
			}
			single.NodeAccesses += ost.NodeAccesses
			single.Candidates += ost.Candidates
		}
		if st.Candidates != single.Candidates {
			t.Fatalf("batch verified %d candidates, its one-point calls %d", st.Candidates, single.Candidates)
		}
		if len(qs) > 1 && ix.Live() > 0 && st.NodeAccesses >= single.NodeAccesses {
			t.Fatalf("batch of %d charged %d node accesses, its one-point calls %d",
				len(qs), st.NodeAccesses, single.NodeAccesses)
		}
	})
}
