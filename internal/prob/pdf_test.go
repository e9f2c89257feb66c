package prob

import (
	"math"
	"math/rand"
	"testing"

	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/uncertain"
)

func randRegion(r *rand.Rand, d int, span float64) geom.Rect {
	lo := make(geom.Point, d)
	hi := make(geom.Point, d)
	for j := 0; j < d; j++ {
		lo[j] = r.Float64() * span
		hi[j] = lo[j] + 1 + r.Float64()*span*0.1
	}
	return geom.Rect{Min: lo, Max: hi}
}

func TestDomProbPDFUniformExact(t *testing.T) {
	q := geom.Point{0, 0}
	anchor := geom.Point{10, 10} // DomRect = [0,20]^2
	// Region half inside the dominance rectangle along dim 0.
	o := uncertain.NewUniformPDF(1, geom.NewRect(geom.Point{15, 5}, geom.Point{25, 10}))
	// Overlap on dim 0: [15,20] of [15,25] -> 0.5; dim 1 fully inside -> 1.
	if got := DomProbPDF(o, anchor, q); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("DomProbPDF = %v, want 0.5", got)
	}
	// Fully inside.
	in := uncertain.NewUniformPDF(2, geom.NewRect(geom.Point{5, 5}, geom.Point{8, 8}))
	if got := DomProbPDF(in, anchor, q); got != 1 {
		t.Fatalf("DomProbPDF inside = %v, want 1", got)
	}
	// Fully outside.
	out := uncertain.NewUniformPDF(3, geom.NewRect(geom.Point{30, 30}, geom.Point{40, 40}))
	if got := DomProbPDF(out, anchor, q); got != 0 {
		t.Fatalf("DomProbPDF outside = %v, want 0", got)
	}
}

func TestDomProbPDFMatchesDiscretization(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 20; trial++ {
		d := 1 + rng.Intn(3)
		o := uncertain.NewUniformPDF(1, randRegion(rng, d, 50))
		anchor := make(geom.Point, d)
		q := make(geom.Point, d)
		for j := 0; j < d; j++ {
			anchor[j] = rng.Float64() * 60
			q[j] = rng.Float64() * 60
		}
		exact := DomProbPDF(o, anchor, q)
		disc := o.Discretize(4000, rng)
		approx := DomProb(disc, anchor, q)
		if math.Abs(exact-approx) > 0.05 {
			t.Fatalf("trial %d: exact %v vs discretized %v", trial, exact, approx)
		}
	}
}

func TestPrReverseSkylinePDFMatchesDiscretization(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 10; trial++ {
		d := 2
		an := uncertain.NewUniformPDF(0, randRegion(rng, d, 40))
		q := geom.Point{rng.Float64() * 50, rng.Float64() * 50}
		others := make([]*uncertain.PDFObject, 3)
		discOthers := make([]*uncertain.Object, 3)
		for i := range others {
			others[i] = uncertain.NewUniformPDF(i+1, randRegion(rng, d, 40))
			discOthers[i] = others[i].Discretize(60, rng)
		}
		exact := PrReverseSkylinePDF(an, q, others, 24)
		anDisc := an.Discretize(60, rng)
		approx := PrReverseSkyline(anDisc, q, discOthers)
		if math.Abs(exact-approx) > 0.08 {
			t.Fatalf("trial %d: pdf %v vs discretized %v", trial, exact, approx)
		}
	}
}

func TestPrReverseSkylinePDFGaussian(t *testing.T) {
	// A Gaussian blocker concentrated inside the dominance region should
	// suppress Pr(an) more than a uniform blocker over a region that only
	// partially covers it.
	q := geom.Point{0, 0}
	an := uncertain.NewUniformPDF(0, geom.NewRect(geom.Point{20, 20}, geom.Point{24, 24}))
	// Blocker centered well inside every dominance rectangle of an.
	blocker := uncertain.NewGaussianPDF(1, geom.NewRect(geom.Point{8, 8}, geom.Point{12, 12}), nil, nil)
	pr := PrReverseSkylinePDF(an, q, []*uncertain.PDFObject{blocker}, 16)
	if pr > 1e-6 {
		t.Fatalf("Pr(an) = %v, want ~0 (blocker always dominates)", pr)
	}
	// No blockers: probability 1.
	if got := PrReverseSkylinePDF(an, q, nil, 16); got != 1 {
		t.Fatalf("Pr(an) without blockers = %v", got)
	}
	// Self is skipped.
	if got := PrReverseSkylinePDF(an, q, []*uncertain.PDFObject{an}, 16); got != 1 {
		t.Fatalf("self-skip broken: %v", got)
	}
}

func TestPDFEvaluatorMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	d := 2
	an := uncertain.NewUniformPDF(0, randRegion(rng, d, 40))
	q := geom.Point{rng.Float64() * 50, rng.Float64() * 50}
	cands := make([]*uncertain.PDFObject, 5)
	for i := range cands {
		cands[i] = uncertain.NewUniformPDF(i+1, randRegion(rng, d, 40))
	}
	e, kept := NewPDFEvaluator(an, q, cands, 16)
	if len(kept) == 0 {
		t.Fatal("no candidate has dominance mass; the case tests nothing")
	}
	// Candidates without a row stay in the direct product: their factor
	// is exactly 1.
	direct := func() float64 {
		act := append([]*uncertain.PDFObject(nil), cands...)
		for j, pos := range kept {
			if !e.Active(j) {
				act[pos] = nil
			}
		}
		return PrReverseSkylinePDF(an, q, act, 16)
	}
	if math.Abs(e.Pr()-direct()) > 1e-6 {
		t.Fatalf("initial: %v vs %v", e.Pr(), direct())
	}
	for step := 0; step < 12; step++ {
		j := rng.Intn(len(kept))
		if e.Active(j) {
			e.Remove(j)
		} else {
			e.Add(j)
		}
		if got, want := e.Pr(), direct(); math.Abs(got-want) > 1e-6 {
			t.Fatalf("step %d: %v vs %v", step, got, want)
		}
	}
}

// TestCandidateRectsPDFCoverage verifies the Section-3.2 filter property:
// any pdf object with positive dominance probability against some point of
// an's region must intersect one of the candidate rectangles.
func TestCandidateRectsPDFCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 150; trial++ {
		d := 1 + rng.Intn(3)
		an := uncertain.NewUniformPDF(0, randRegion(rng, d, 50))
		q := make(geom.Point, d)
		for j := 0; j < d; j++ {
			q[j] = rng.Float64() * 60
		}
		recs := CandidateRectsPDF(an, q)
		if len(recs) == 0 {
			t.Fatal("no candidate rectangles")
		}
		o := uncertain.NewUniformPDF(1, randRegion(rng, d, 50))
		// Sample anchors x from an's region; if o can dominate q w.r.t. x,
		// o's region must intersect some candidate rectangle.
		for k := 0; k < 30; k++ {
			x := an.SampleFrom(rng)
			if DomProbPDF(o, x, q) > 1e-9 {
				hit := false
				for _, rc := range recs {
					if rc.Intersects(o.Region) {
						hit = true
						break
					}
				}
				if !hit {
					t.Fatalf("object dominating w.r.t. %v missed by filter rects", x)
				}
			}
		}
	}
}

// TestCoreRectPDFImpliesAlwaysDominates verifies the Γ1 rectangle property:
// a region inside the core rectangle dominates q w.r.t. every point of an's
// region with probability 1.
func TestCoreRectPDFImpliesAlwaysDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	q := geom.Point{0, 0}
	an := uncertain.NewUniformPDF(0, geom.NewRect(geom.Point{20, 30}, geom.Point{26, 38}))
	core, ok := CoreRectPDF(an, q)
	if !ok {
		t.Fatal("single-quadrant region must yield a core rect")
	}
	// Nearest corner is (20,30): core = [-20,20]x[-30,30] around it… the
	// exact box: DomRect((20,30), (0,0)) = [0,40]x[0,60]? No: extent is
	// |q-c| per dim = (20,30), so [0,40]x[0,60]. An object near q inside it:
	inner := uncertain.NewUniformPDF(1, geom.NewRect(geom.Point{2, 3}, geom.Point{6, 8}))
	if !core.ContainsRect(inner.Region) {
		t.Fatalf("test object escapes the core rect %v", core)
	}
	for k := 0; k < 100; k++ {
		x := an.SampleFrom(rng)
		if DomProbPDF(inner, x, q) != 1 {
			t.Fatalf("inner object should dominate with prob 1 w.r.t. %v", x)
		}
	}
	// Straddling region: no core rect.
	strad := uncertain.NewUniformPDF(2, geom.NewRect(geom.Point{-5, 5}, geom.Point{5, 10}))
	if _, ok := CoreRectPDF(strad, q); ok {
		t.Fatal("straddling region must not yield a core rect")
	}
}
