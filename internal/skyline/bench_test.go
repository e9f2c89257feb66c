package skyline

import (
	"context"
	"math/rand"
	"testing"

	"github.com/crsky/crsky/internal/geom"
)

func benchIndex(n int) *Index {
	r := rand.New(rand.NewSource(1))
	return NewIndex(randPts(r, n, 2, 10000))
}

// BenchmarkReverseSkylineScan vs BenchmarkReverseSkylineBBRS quantify the
// branch-and-bound advantage on the full reverse skyline query.
func BenchmarkReverseSkylineScan(b *testing.B) {
	ix := benchIndex(20_000)
	q := geom.Point{5000, 5000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.ReverseSkyline(q)
	}
}

// BenchmarkReverseSkylineBBRS reports the one-point BBRS call's
// allocations and its node accesses ("nodes/op": traversal plus
// verification windows).
func BenchmarkReverseSkylineBBRS(b *testing.B) {
	ix := benchIndex(20_000)
	q := geom.Point{5000, 5000}
	qs := []geom.Point{q}
	b.ReportAllocs()
	var nodes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, _ := ix.ReverseSkylineBBRSBatch(context.Background(), qs, nil)
		nodes += st.NodeAccesses
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}

func BenchmarkMembershipTest(b *testing.B) {
	ix := benchIndex(100_000)
	q := geom.Point{5000, 5000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Member(i%ix.Len(), q)
	}
}
