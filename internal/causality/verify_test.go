package causality

import (
	"math"
	"math/rand"
	"testing"

	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/uncertain"
)

// TestNearObjectsBitIdentical: the verifier's linear pre-scan may drop only
// exact ×1 factors of Eq. 2, so Pr(an | P − removed − {extra}) over the
// pre-scanned objects must equal the all-object Pr bit for bit, on random
// sample and pdf cases with random removal sets.
func TestNearObjectsBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(181))
	randQ := func(d int) geom.Point {
		q := make(geom.Point, d)
		for j := range q {
			q[j] = r.Float64() * 60
		}
		return q
	}
	randRemoval := func(n int) (map[int]bool, int) {
		removed := map[int]bool{}
		for id := 0; id < n; id++ {
			if r.Intn(4) == 0 {
				removed[id] = true
			}
		}
		return removed, r.Intn(n+1) - 1 // extra may be -1: nothing extra
	}
	var dropped, inside int
	check := func(model string, got, want float64, n, kept int) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: pre-scanned Pr %v (%d of %d objects), all-object Pr %v", model, got, kept, n, want)
		}
		if got > 0 && got < 1 {
			inside++
		}
	}

	for trial := 0; trial < 60; trial++ {
		d := 1 + r.Intn(3)
		ds := randTinyUncertain(r, 30, d, 4)
		q := randQ(d)
		an := ds.Objects[r.Intn(ds.Len())]
		near := nearObjects(ds.Objects, an, q)
		dropped += ds.Len() - 1 - len(near)
		for k := 0; k < 6; k++ {
			removed, extra := randRemoval(ds.Len())
			check("sample", prWithRemoved(an, q, near, removed, extra),
				prWithRemoved(an, q, ds.Objects, removed, extra), ds.Len(), len(near))
		}
	}
	for trial := 0; trial < 30; trial++ {
		d := 1 + r.Intn(2)
		kind := []uncertain.PDFKind{uncertain.Uniform, uncertain.Gaussian}[r.Intn(2)]
		s := randPDFSet(r, 25, d, kind)
		q := randQ(d)
		an := s.Objects[r.Intn(s.Len())]
		near := nearObjectsPDF(s.Objects, an, q)
		dropped += s.Len() - 1 - len(near)
		for k := 0; k < 4; k++ {
			removed, extra := randRemoval(s.Len())
			check("pdf", prWithRemovedPDF(an, q, near, removed, extra, 0),
				prWithRemovedPDF(an, q, s.Objects, removed, extra, 0), s.Len(), len(near))
		}
	}
	if dropped == 0 || inside < 20 {
		t.Fatalf("uninformative run: %d objects dropped, %d probabilities strictly inside (0, 1)", dropped, inside)
	}
}
