package causality

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/uncertain"
)

func randPDFSet(r *rand.Rand, n, d int, kind uncertain.PDFKind) *PDFSet {
	objs := make([]*uncertain.PDFObject, n)
	for i := 0; i < n; i++ {
		lo := make(geom.Point, d)
		hi := make(geom.Point, d)
		for j := 0; j < d; j++ {
			lo[j] = r.Float64() * 60
			hi[j] = lo[j] + 2 + r.Float64()*15
		}
		region := geom.Rect{Min: lo, Max: hi}
		if kind == uncertain.Gaussian {
			objs[i] = uncertain.NewGaussianPDF(i, region, nil, nil)
		} else {
			objs[i] = uncertain.NewUniformPDF(i, region)
		}
	}
	s, err := NewPDFSet(objs)
	if err != nil {
		panic(err)
	}
	return s
}

// brutePDFCauses is the Definition-1 oracle under the same quadrature
// semantics CPPDF uses: probabilities evaluated with
// prob.PrReverseSkylinePDF at the given resolution.
func brutePDFCauses(objs []*uncertain.PDFObject, q geom.Point, anID int, alpha float64, nodes int) []Cause {
	an := objs[anID]
	var others []*uncertain.PDFObject
	for _, o := range objs {
		if o.ID != anID {
			others = append(others, o)
		}
	}
	prWith := func(removed map[int]bool, extra int) float64 {
		var act []*uncertain.PDFObject
		for _, o := range others {
			if !removed[o.ID] && o.ID != extra {
				act = append(act, o)
			}
		}
		return prob.PrReverseSkylinePDF(an, q, act, nodes)
	}
	var causes []Cause
	for _, p := range others {
		var pool []int
		for _, o := range others {
			if o.ID != p.ID {
				pool = append(pool, o.ID)
			}
		}
		found := false
		for size := 0; size <= len(pool) && !found; size++ {
			forEachSubset(pool, size, func(gamma []int) bool {
				removed := make(map[int]bool, len(gamma))
				for _, id := range gamma {
					removed[id] = true
				}
				if prob.Less(prWith(removed, -1), alpha) && prob.GEq(prWith(removed, p.ID), alpha) {
					contingency := append([]int{}, gamma...)
					sort.Ints(contingency)
					causes = append(causes, Cause{
						ID:             p.ID,
						Responsibility: 1 / float64(1+size),
						Contingency:    contingency,
						Counterfactual: size == 0,
					})
					found = true
					return false
				}
				return true
			})
		}
	}
	sortCauses(causes)
	return causes
}

// TestCPPDFMatchesOracle validates the Section-3.2 pdf variant against
// exhaustive Definition-1 search under identical quadrature semantics.
func TestCPPDFMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	const nodes = 12
	for _, kind := range []uncertain.PDFKind{uncertain.Uniform, uncertain.Gaussian} {
		ran := 0
		for trial := 0; trial < 120 && ran < 25; trial++ {
			d := 1 + r.Intn(2)
			n := 3 + r.Intn(4)
			s := randPDFSet(r, n, d, kind)
			q := make(geom.Point, d)
			for j := range q {
				q[j] = r.Float64() * 60
			}
			alpha := [3]float64{0.3, 0.5, 0.7}[r.Intn(3)]
			anID := r.Intn(n)
			res, err := CPPDF(s, q, anID, alpha, Options{QuadNodes: nodes})
			if errors.Is(err, ErrNotNonAnswer) {
				continue
			}
			if err != nil {
				t.Fatalf("%v trial %d: %v", kind, trial, err)
			}
			// Skip threshold-knife-edge instances where the oracle and
			// the filtered evaluator could diverge by quadrature noise.
			if knifeEdge(s, q, anID, alpha, nodes) {
				continue
			}
			ran++
			want := brutePDFCauses(s.Objects, q, anID, alpha, nodes)
			causesEqual(t, res.Causes, want, kind.String()+" CPPDF vs oracle")
		}
		if ran < 10 {
			t.Fatalf("%v: only %d informative trials", kind, ran)
		}
	}
}

// knifeEdge reports whether any subset probability falls within a loose
// band of alpha, which would make oracle-vs-algorithm comparisons depend on
// sub-epsilon quadrature differences.
func knifeEdge(s *PDFSet, q geom.Point, anID int, alpha float64, nodes int) bool {
	an := s.Objects[anID]
	var others []*uncertain.PDFObject
	for _, o := range s.Objects {
		if o.ID != anID {
			others = append(others, o)
		}
	}
	n := len(others)
	for mask := 0; mask < 1<<uint(n); mask++ {
		var act []*uncertain.PDFObject
		for i, o := range others {
			if mask&(1<<uint(i)) == 0 {
				act = append(act, o)
			}
		}
		pr := prob.PrReverseSkylinePDF(an, q, act, nodes)
		if pr > alpha-1e-4 && pr < alpha+1e-4 {
			return true
		}
	}
	return false
}

func TestCPPDFCounterfactualBlocker(t *testing.T) {
	q := geom.Point{0, 0}
	an := uncertain.NewUniformPDF(0, geom.NewRect(geom.Point{20, 20}, geom.Point{24, 24}))
	blocker := uncertain.NewUniformPDF(1, geom.NewRect(geom.Point{8, 8}, geom.Point{12, 12}))
	bystander := uncertain.NewUniformPDF(2, geom.NewRect(geom.Point{55, 55}, geom.Point{60, 60}))
	s, err := NewPDFSet([]*uncertain.PDFObject{an, blocker, bystander})
	if err != nil {
		t.Fatal(err)
	}
	res, err := CPPDF(s, q, 0, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Causes) != 1 || res.Causes[0].ID != 1 || !res.Causes[0].Counterfactual {
		t.Fatalf("causes = %v, want counterfactual blocker", res.Causes)
	}
	if res.Pr != 0 {
		t.Fatalf("Pr = %v, want 0 (blocker always dominates)", res.Pr)
	}
}

func TestCPPDFErrors(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	s := randPDFSet(r, 5, 2, uncertain.Uniform)
	if _, err := CPPDF(s, geom.Point{1, 1}, -1, 0.5, Options{}); !errors.Is(err, ErrBadObject) {
		t.Errorf("bad index: %v", err)
	}
	if _, err := CPPDF(s, geom.Point{1}, 0, 0.5, Options{}); err == nil {
		t.Error("dim mismatch should fail")
	}
	if _, err := CPPDF(s, geom.Point{1, 1}, 0, 0, Options{}); err == nil {
		t.Error("alpha=0 should fail")
	}
}

func TestNewPDFSetValidation(t *testing.T) {
	if _, err := NewPDFSet(nil); err == nil {
		t.Error("empty set should fail")
	}
	bad := []*uncertain.PDFObject{uncertain.NewUniformPDF(3, geom.NewRect(geom.Point{0, 0}, geom.Point{1, 1}))}
	if _, err := NewPDFSet(bad); err == nil {
		t.Error("misnumbered IDs should fail")
	}
	mixed := []*uncertain.PDFObject{
		uncertain.NewUniformPDF(0, geom.NewRect(geom.Point{0, 0}, geom.Point{1, 1})),
		uncertain.NewUniformPDF(1, geom.NewRect(geom.Point{0, 0, 0}, geom.Point{1, 1, 1})),
	}
	if _, err := NewPDFSet(mixed); err == nil {
		t.Error("mixed dims should fail")
	}
}

func TestPDFSetTree(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	s := randPDFSet(r, 50, 2, uncertain.Uniform)
	tr := s.Tree()
	if tr.Len() != 50 {
		t.Fatalf("tree Len = %d", tr.Len())
	}
	if s.Tree() != tr {
		t.Fatal("tree should be cached")
	}
	if s.Len() != 50 || s.Dims() != 2 {
		t.Fatalf("Len/Dims = %d/%d", s.Len(), s.Dims())
	}
}

// TestPDFEvaluatorMatchesDropAndRebuild holds PDFSet.evaluator, which
// leaves zero-mass candidates out while it builds the matrix, bit-identical
// to building an evaluator over every filter candidate, dropping the rows
// without dominance mass and rebuilding over the rest: the kept IDs, Pr and
// every PrWithout(j) must match exactly, on random cases whose filter
// returns false positives.
func TestPDFEvaluatorMatchesDropAndRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	const nodes = 8
	withFalsePositives := 0
	for trial := 0; trial < 120; trial++ {
		kind := [2]uncertain.PDFKind{uncertain.Uniform, uncertain.Gaussian}[trial%2]
		d := 1 + r.Intn(3)
		s := randPDFSet(r, 120, d, kind)
		q := make(geom.Point, d)
		for j := range q {
			q[j] = r.Float64() * 60
		}
		anID := r.Intn(s.Len())
		an := s.Objects[anID]
		candIDs, _ := s.FilterCandidates(q, anID)

		rule := an.Quadrature(nodes)
		weights := make([]float64, len(rule))
		for i, n := range rule {
			weights[i] = n.W
		}
		var wantIDs []int
		var wantRows [][]float64
		for _, id := range candIDs {
			row := make([]float64, len(rule))
			mass := false
			for i, n := range rule {
				row[i] = prob.DomProbPDF(s.Objects[id], n.X, q)
				mass = mass || row[i] != 0
			}
			if mass {
				wantIDs = append(wantIDs, id)
				wantRows = append(wantRows, row)
			}
		}
		if len(wantIDs) < len(candIDs) {
			withFalsePositives++
		}
		want := prob.NewEvaluatorRaw(weights, wantRows)

		e, gotIDs, cands := s.evaluator(an, q, append([]int(nil), candIDs...), nodes)
		if !slices.Equal(gotIDs, wantIDs) {
			t.Fatalf("trial %d: kept %v, want %v (filter %v)", trial, gotIDs, wantIDs, candIDs)
		}
		for j, c := range cands {
			if c != s.Objects[gotIDs[j]] {
				t.Fatalf("trial %d: row %d holds object %d, want %d", trial, j, c.ID, gotIDs[j])
			}
		}
		if got, w := e.Pr(), want.Pr(); got != w {
			t.Fatalf("trial %d: Pr %v, want %v", trial, got, w)
		}
		for j := range gotIDs {
			if got, w := e.PrWithout(j), want.PrWithout(j); got != w {
				t.Fatalf("trial %d: PrWithout(%d) %v, want %v", trial, j, got, w)
			}
		}
	}
	if withFalsePositives < 10 {
		t.Fatalf("only %d of the cases had filter false positives", withFalsePositives)
	}
}
