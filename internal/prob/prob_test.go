package prob

import (
	"math"
	"math/rand"
	"testing"

	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/pworld"
	"github.com/crsky/crsky/internal/uncertain"
)

func randObj(r *rand.Rand, id, d, maxSamples int, span float64) *uncertain.Object {
	n := 1 + r.Intn(maxSamples)
	locs := make([]geom.Point, n)
	center := make(geom.Point, d)
	for j := range center {
		center[j] = r.Float64() * span
	}
	for i := range locs {
		p := make(geom.Point, d)
		for j := range p {
			p[j] = center[j] + (r.Float64()-0.5)*span*0.2
		}
		locs[i] = p
	}
	return uncertain.NewUniform(id, locs)
}

func TestGEqLess(t *testing.T) {
	if !GEq(0.5, 0.5) || !GEq(0.5-1e-12, 0.5) || GEq(0.4, 0.5) {
		t.Error("GEq broken")
	}
	if Less(0.5, 0.5) || !Less(0.4, 0.5) {
		t.Error("Less broken")
	}
}

func TestSnap(t *testing.T) {
	if snap(1e-12) != 0 || snap(1-1e-12) != 1 {
		t.Error("snap should collapse endpoint noise")
	}
	if snap(0.5) != 0.5 {
		t.Error("snap must not disturb interior values")
	}
}

func TestDomProbManual(t *testing.T) {
	q := geom.Point{10, 10}
	anchor := geom.Point{14, 14} // DomRect extent 4 around (14,14): [10,18]^2
	o := uncertain.NewUniform(1, []geom.Point{
		{13, 13}, // dominates
		{17, 17}, // inside, dominates
		{20, 20}, // outside
		{10, 10}, // boundary: ties on both dims -> does not dominate? |10-14|=4 == |q-14|=4 both dims, no strict -> no
	})
	if got := DomProb(o, anchor, q); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("DomProb = %v, want 0.5", got)
	}
	// A certain dominator has probability exactly 1 after snapping.
	c := uncertain.Certain(2, geom.Point{14, 14})
	if got := DomProb(c, anchor, q); got != 1 {
		t.Fatalf("DomProb certain = %v, want 1", got)
	}
}

func TestDomProbSnapThirds(t *testing.T) {
	// Three samples of probability 1/3 each, all dominating: the float sum
	// is 0.999... and must snap to exactly 1 (Lemma 4 relies on this).
	q := geom.Point{0, 0}
	anchor := geom.Point{10, 10}
	o := uncertain.NewUniform(1, []geom.Point{{9, 9}, {8, 8}, {7, 7}})
	if got := DomProb(o, anchor, q); got != 1 {
		t.Fatalf("DomProb = %v, want exactly 1", got)
	}
}

// TestEq2MatchesPossibleWorlds is the central correctness test for the
// probability engine: the closed-form Eq. (2) must equal brute-force
// possible-world enumeration on random small instances.
func TestEq2MatchesPossibleWorlds(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		d := 1 + r.Intn(3)
		nObjs := 2 + r.Intn(4)
		objs := make([]*uncertain.Object, nObjs)
		for i := range objs {
			objs[i] = randObj(r, i, d, 3, 100)
		}
		q := make(geom.Point, d)
		for j := range q {
			q[j] = r.Float64() * 100
		}
		u := objs[0]
		others := objs[1:]
		want := pworld.PrReverseSkyline(u, q, others)
		got := PrReverseSkyline(u, q, others)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: Eq2 %v vs possible worlds %v", trial, got, want)
		}
		// Passing the full dataset (u included) must give the same result.
		got2 := PrReverseSkyline(u, q, objs)
		if math.Abs(got2-want) > 1e-9 {
			t.Fatalf("trial %d: self-skip broken: %v vs %v", trial, got2, want)
		}
	}
}

func TestPRSQAndIsAnswer(t *testing.T) {
	q := geom.Point{5, 5}
	// near dominates q w.r.t. far in every world, so far is never a
	// reverse skyline point; near has no dominators, so Pr(near) = 1.
	near := uncertain.Certain(0, geom.Point{6, 6})
	far := uncertain.Certain(1, geom.Point{12, 12})
	objs := []*uncertain.Object{near, far}
	got := PRSQ(objs, q, 0.5)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("PRSQ = %v, want [0]", got)
	}
	if !IsAnswer(near, q, 0.5, objs) || IsAnswer(far, q, 0.5, objs) {
		t.Fatal("IsAnswer inconsistent with PRSQ")
	}
	// A small but non-degenerate alpha still excludes Pr == 0 objects.
	if got := PRSQ(objs, q, 0.001); len(got) != 1 || got[0] != 0 {
		t.Fatalf("PRSQ small alpha = %v", got)
	}
}

func TestEvaluatorMatchesDirect(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		d := 1 + r.Intn(3)
		an := randObj(r, 0, d, 4, 100)
		q := make(geom.Point, d)
		for j := range q {
			q[j] = r.Float64() * 100
		}
		nc := 1 + r.Intn(6)
		cands := make([]*uncertain.Object, nc)
		for i := range cands {
			cands[i] = randObj(r, i+1, d, 3, 100)
		}
		e := NewEvaluator(an, q, cands)

		direct := func() float64 {
			var act []*uncertain.Object
			for j, c := range cands {
				if e.Active(j) {
					act = append(act, c)
				}
			}
			return PrReverseSkyline(an, q, act)
		}

		if math.Abs(e.Pr()-direct()) > 1e-9 {
			t.Fatalf("trial %d: initial Pr %v vs direct %v", trial, e.Pr(), direct())
		}
		// Random removal/re-addition sequence.
		for step := 0; step < 20; step++ {
			j := r.Intn(nc)
			if e.Active(j) {
				want := e.PrWithout(j)
				e.Remove(j)
				if math.Abs(e.Pr()-want) > 1e-9 {
					t.Fatalf("PrWithout disagrees with Remove+Pr: %v vs %v", want, e.Pr())
				}
			} else {
				e.Add(j)
			}
			if got, want := e.Pr(), direct(); math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d step %d: Pr %v vs direct %v", trial, step, got, want)
			}
		}
		e.Reset()
		if e.NumActive() != nc {
			t.Fatal("Reset did not reactivate all")
		}
		if math.Abs(e.Pr()-PrReverseSkyline(an, q, cands)) > 1e-9 {
			t.Fatal("Reset state wrong")
		}
	}
}

func TestEvaluatorZeroFactorHandling(t *testing.T) {
	// One candidate always dominates (d == 1 for every sample): Pr must be
	// exactly 0 while it is active, and recover exactly when removed.
	weights := []float64{0.5, 0.5}
	d := [][]float64{
		{1, 1},    // always dominates
		{0.5, 0},  // sometimes dominates
		{0, 0.25}, // sometimes dominates
	}
	e := NewEvaluatorRaw(weights, d)
	if e.Pr() != 0 {
		t.Fatalf("Pr = %v, want exactly 0", e.Pr())
	}
	if !e.AlwaysDominates(0) || e.AlwaysDominates(1) {
		t.Fatal("AlwaysDominates misclassifies")
	}
	e.Remove(0)
	want := 0.5*(1-0.5)*(1-0) + 0.5*(1-0)*(1-0.25)
	if math.Abs(e.Pr()-want) > 1e-12 {
		t.Fatalf("Pr after removing blocker = %v, want %v", e.Pr(), want)
	}
	e.Add(0)
	if e.Pr() != 0 {
		t.Fatal("re-adding blocker should zero the probability")
	}
}

func TestEvaluatorScratchFallback(t *testing.T) {
	// A factor in the risky band (Eps, 1e-6) forces scratch mode; results
	// must still match direct computation.
	weights := []float64{1}
	d := [][]float64{
		{1 - 1e-7}, // factor 1e-7 < minIncrementalFactor
		{0.5},
	}
	e := NewEvaluatorRaw(weights, d)
	if !e.scratch {
		t.Fatal("expected scratch mode")
	}
	want := (1e-7) * 0.5
	if math.Abs(e.Pr()-want) > 1e-15 {
		t.Fatalf("Pr = %v, want %v", e.Pr(), want)
	}
	if math.Abs(e.PrWithout(0)-0.5) > 1e-12 {
		t.Fatalf("PrWithout(0) = %v, want 0.5", e.PrWithout(0))
	}
	e.Remove(1)
	if math.Abs(e.Pr()-1e-7) > 1e-15 {
		t.Fatalf("Pr = %v, want 1e-7", e.Pr())
	}
	e.Reset()
	if math.Abs(e.Pr()-want) > 1e-15 {
		t.Fatal("Reset in scratch mode broken")
	}
}

func TestEvaluatorIdempotentMutations(t *testing.T) {
	e := NewEvaluatorRaw([]float64{1}, [][]float64{{0.5}, {0.25}})
	before := e.Pr()
	e.Add(0) // already active: no-op
	if e.Pr() != before || e.NumActive() != 2 {
		t.Fatal("Add on active candidate must be a no-op")
	}
	e.Remove(0)
	mid := e.Pr()
	e.Remove(0) // already removed: no-op
	if e.Pr() != mid || e.NumActive() != 1 {
		t.Fatal("Remove on inactive candidate must be a no-op")
	}
}

func TestEvaluatorClone(t *testing.T) {
	r := rand.New(rand.NewSource(153))
	an := randObj(r, 0, 2, 3, 100)
	q := geom.Point{50, 50}
	cands := make([]*uncertain.Object, 5)
	for i := range cands {
		cands[i] = randObj(r, i+1, 2, 3, 100)
	}
	e := NewEvaluator(an, q, cands)
	e.Remove(1)
	c := e.Clone()
	if c.Pr() != e.Pr() || c.NumActive() != e.NumActive() {
		t.Fatal("clone state differs from original")
	}
	// Mutating the clone must not affect the original and vice versa.
	c.Remove(2)
	if e.Active(2) != true {
		t.Fatal("clone mutation leaked into original")
	}
	e.Remove(3)
	if c.Active(3) != true {
		t.Fatal("original mutation leaked into clone")
	}
	// Both still compute correctly against direct evaluation.
	direct := func(ev *Evaluator) float64 {
		var act []*uncertain.Object
		for j := range cands {
			if ev.Active(j) {
				act = append(act, cands[j])
			}
		}
		return PrReverseSkyline(an, q, act)
	}
	if math.Abs(c.Pr()-direct(c)) > 1e-9 {
		t.Fatalf("clone Pr %v vs direct %v", c.Pr(), direct(c))
	}
	if math.Abs(e.Pr()-direct(e)) > 1e-9 {
		t.Fatalf("original Pr %v vs direct %v", e.Pr(), direct(e))
	}
}
