package skyline

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/rtree"
)

// ReverseSkylineBBRS computes the reverse skyline of q: the one-point call
// of ReverseSkylineBBRSBatch.
func (ix *Index) ReverseSkylineBBRS(q geom.Point) []int {
	out, _, _ := ix.ReverseSkylineBBRSBatch(context.Background(), []geom.Point{q}, nil)
	return out[0]
}

func TestBBRSMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(111))
	for _, d := range []int{2, 3, 4} {
		pts := randPts(r, 500, d, 1000)
		ix := NewIndex(pts, rtree.WithMaxEntries(12))
		for trial := 0; trial < 8; trial++ {
			q := randPts(r, 1, d, 1000)[0]
			want := BruteReverseSkyline(pts, q)
			got := ix.ReverseSkylineBBRS(q)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("d=%d trial %d: BBRS %v vs brute %v", d, trial, got, want)
			}
		}
	}
}

func TestBBRSMatchesPerPointScan(t *testing.T) {
	r := rand.New(rand.NewSource(112))
	pts := randPts(r, 2000, 2, 1000)
	ix := NewIndex(pts, rtree.WithMaxEntries(16))
	q := geom.Point{500, 500}
	scan := ix.ReverseSkyline(q)
	bbrs := ix.ReverseSkylineBBRS(q)
	if !reflect.DeepEqual(scan, bbrs) {
		t.Fatalf("BBRS %v vs per-point scan %v", bbrs, scan)
	}
}

// TestBBRSCheaperThanScan verifies the point of the algorithm: the
// branch-and-bound traversal performs far fewer node accesses than testing
// every point with its own window query.
func TestBBRSCheaperThanScan(t *testing.T) {
	r := rand.New(rand.NewSource(113))
	pts := randPts(r, 5000, 2, 1000)
	ix := NewIndex(pts, rtree.WithMaxEntries(16))
	q := geom.Point{500, 500}

	_, st, _ := ix.ReverseSkylineBBRSBatch(context.Background(), []geom.Point{q}, nil)
	bbrsIO := st.NodeAccesses

	// ReverseSkyline's scan: one membership window query per point.
	var scanIO int64
	for i := range pts {
		_, n := ix.Member(i, q)
		scanIO += n
	}

	if bbrsIO*4 > scanIO {
		t.Fatalf("BBRS I/O %d not clearly below scan I/O %d", bbrsIO, scanIO)
	}
}

func TestBBRSQueryAtDataPoint(t *testing.T) {
	// A data point exactly at q is the classic boundary trap: it never
	// dynamically dominates q w.r.t. anything (all deviations tie at 0
	// against |q−p| — no wait, |q_at−p| = |q−p| so ties on every dim).
	pts := []geom.Point{
		{5, 5}, // exactly at q
		{6, 6},
		{9, 9},
		{40, 40},
	}
	ix := NewIndex(pts, rtree.WithMaxEntries(4))
	q := geom.Point{5, 5}
	want := BruteReverseSkyline(pts, q)
	got := ix.ReverseSkylineBBRS(q)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BBRS %v vs brute %v", got, want)
	}
}

func TestBBRSDimMismatchPanics(t *testing.T) {
	ix := NewIndex([]geom.Point{{1, 2}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ix.ReverseSkylineBBRS(geom.Point{1})
}

// TestBBRSBatchMatchesPerQuery asserts the batch is element-wise identical
// to the brute-force reverse skyline of each query across dimensionalities
// and query mixes.
func TestBBRSBatchMatchesPerQuery(t *testing.T) {
	r := rand.New(rand.NewSource(211))
	for _, d := range []int{2, 3, 4} {
		pts := randPts(r, 600, d, 1000)
		ix := NewIndex(pts, rtree.WithMaxEntries(12))
		qs := randPts(r, 7, d, 1000)
		got, _, err := ix.ReverseSkylineBBRSBatch(context.Background(), qs, nil)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		for k, q := range qs {
			want := BruteReverseSkyline(pts, q)
			if !reflect.DeepEqual(got[k], want) {
				t.Fatalf("d=%d q#%d: batch %v vs brute %v", d, k, got[k], want)
			}
		}
	}
}

// TestBBRSBatchUnionAccounting verifies the batch's accounting: charging a
// node once however many of the batch's traversals read it, N queries
// touch strictly fewer nodes than N batches of one.
func TestBBRSBatchUnionAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(212))
	pts := randPts(r, 5000, 2, 1000)
	ix := NewIndex(pts, rtree.WithMaxEntries(16))
	qs := randPts(r, 8, 2, 1000)

	var singleIO int64
	for _, q := range qs {
		_, st, _ := ix.ReverseSkylineBBRSBatch(context.Background(), []geom.Point{q}, nil)
		singleIO += st.NodeAccesses
	}
	_, st, _ := ix.ReverseSkylineBBRSBatch(context.Background(), qs, nil)
	batchIO := st.NodeAccesses

	if batchIO >= singleIO {
		t.Fatalf("batch I/O %d not below %d batches of one's %d", batchIO, len(qs), singleIO)
	}
}

// TestBBRSBatchEmitOrderAndEarlyStop asserts emit sees every query exactly
// once in ascending order, and that a context canceled during an emit
// stops the batch before the next query, keeping the prefix.
func TestBBRSBatchEmitOrderAndEarlyStop(t *testing.T) {
	r := rand.New(rand.NewSource(213))
	pts := randPts(r, 400, 2, 1000)
	ix := NewIndex(pts, rtree.WithMaxEntries(8))
	qs := randPts(r, 5, 2, 1000)

	var seen []int
	full, fullSt, err := ix.ReverseSkylineBBRSBatch(context.Background(), qs, func(k int, ids []int) {
		seen = append(seen, k)
		if want := BruteReverseSkyline(pts, qs[k]); !reflect.DeepEqual(ids, want) {
			t.Fatalf("emit q#%d: %v, want %v", k, ids, want)
		}
	})
	if err != nil || !reflect.DeepEqual(seen, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("emit order %v (err %v), want ascending 0..4", seen, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen = seen[:0]
	partial, st, err := ix.ReverseSkylineBBRSBatch(ctx, qs, func(k int, ids []int) {
		seen = append(seen, k)
		if k == 2 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) || !reflect.DeepEqual(seen, []int{0, 1, 2}) {
		t.Fatalf("canceled batch emitted %v (err %v), want 0..2 and context.Canceled", seen, err)
	}
	for k := 0; k <= 2; k++ {
		if !reflect.DeepEqual(partial[k], full[k]) {
			t.Fatalf("stopped prefix q#%d differs: %v vs %v", k, partial[k], full[k])
		}
	}
	for k := 3; k < 5; k++ {
		if partial[k] != nil {
			t.Fatalf("abandoned q#%d has non-nil answer %v", k, partial[k])
		}
	}
	if st.NodeAccesses >= fullSt.NodeAccesses || st.Candidates >= fullSt.Candidates {
		t.Fatalf("stopped batch charged %+v, the full batch %+v", st, fullSt)
	}
	if _, _, err := ix.ReverseSkylineBBRSBatch(ctx, qs, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch on a canceled context: err %v", err)
	}
}

// TestBBRSBatchEmptyInputs covers the degenerate shapes: no queries, and a
// batch against an empty index.
func TestBBRSBatchEmptyInputs(t *testing.T) {
	r := rand.New(rand.NewSource(214))
	pts := randPts(r, 50, 2, 1000)
	ix := NewIndex(pts, rtree.WithMaxEntries(8))
	if out, _, err := ix.ReverseSkylineBBRSBatch(context.Background(), nil, nil); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: out=%v err=%v", out, err)
	}
	for i := range pts {
		if err := ix.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	out, st, err := ix.ReverseSkylineBBRSBatch(context.Background(), randPts(r, 2, 2, 1000), nil)
	if err != nil || len(out) != 2 || out[0] != nil || out[1] != nil || st != (BBRSStats{}) {
		t.Fatalf("batch on an emptied index: out=%v stats=%+v err=%v", out, st, err)
	}
}
