package crsky

import (
	"context"
	"errors"
	"math"
	"testing"
)

// query is the one-point QueryCtx call the facade tests compare against
// the naive oracles.
func query(t testing.TB, e Querier, q Point, alpha float64, opts QueryOptions) []int {
	t.Helper()
	ids, _, err := e.QueryCtx(context.Background(), q, alpha, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

// fixtureEngine builds the paper-style toy scenario used across the facade
// tests: a non-answer blocked by one full blocker and one partial one.
func fixtureEngine(t *testing.T) *Engine {
	t.Helper()
	objs := []*Object{
		NewUniformObject(0, []Point{{20, 20}, {24, 24}}), // the non-answer
		NewUniformObject(1, []Point{{10, 10}, {11, 11}}), // full blocker
		NewUniformObject(2, []Point{{15, 15}, {99, 99}}), // partial blocker
		NewCertainObject(3, Point{-70, -70}),             // bystander
	}
	e, err := NewEngine(objs)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineBasics(t *testing.T) {
	e := fixtureEngine(t)
	if e.Len() != 4 || e.Dims() != 2 {
		t.Fatalf("Len/Dims = %d/%d", e.Len(), e.Dims())
	}
	if e.Object(1).ID != 1 {
		t.Fatal("Object accessor broken")
	}
	q := Point{0, 0}
	if pr := e.Prob(0, q); pr != 0 {
		t.Fatalf("Pr(an) = %v, want 0 (full blocker present)", pr)
	}
	if pr := e.Prob(3, q); pr != 1 {
		t.Fatalf("Pr(bystander) = %v, want 1", pr)
	}
	if e.IsAnswer(0, q, 0.5) {
		t.Fatal("blocked object must not be an answer")
	}
	answers := query(t, e, q, 0.5, QueryOptions{})
	for _, id := range answers {
		if id == 0 {
			t.Fatal("non-answer in PRSQ result")
		}
	}
	if len(answers) == 0 {
		t.Fatal("PRSQ should return the unblocked objects")
	}
}

func TestEngineExplain(t *testing.T) {
	e := fixtureEngine(t)
	q := Point{0, 0}
	res, err := e.Explain(0, q, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Causes) != 1 || res.Causes[0].ID != 1 || !res.Causes[0].Counterfactual {
		t.Fatalf("causes = %v, want counterfactual full blocker", res.Causes)
	}
	// Naive baseline agrees.
	naive, err := e.ExplainNaive(0, q, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(naive.Causes) != len(res.Causes) || naive.Causes[0].ID != res.Causes[0].ID {
		t.Fatalf("naive disagreement: %v vs %v", naive.Causes, res.Causes)
	}
	// Explaining an answer fails cleanly.
	if _, err := e.Explain(3, q, 0.5, Options{}); !errors.Is(err, ErrNotNonAnswer) {
		t.Fatalf("expected ErrNotNonAnswer, got %v", err)
	}
}

func TestEngineIOAccounting(t *testing.T) {
	e := fixtureEngine(t)
	q := Point{0, 0}
	e.ResetCounters()
	if _, err := e.Explain(0, q, 0.5, Options{}); err != nil {
		t.Fatal(err)
	}
	if e.NodeAccesses() == 0 {
		t.Fatal("Explain should cost node accesses")
	}
	e.ResetCounters()
	if e.NodeAccesses() != 0 {
		t.Fatal("ResetCounters broken")
	}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil); err == nil {
		t.Error("empty object list should fail")
	}
	if _, err := NewEngine([]*Object{NewCertainObject(7, Point{1, 1})}); err == nil {
		t.Error("misnumbered IDs should fail")
	}
}

func TestCertainEngine(t *testing.T) {
	pts := []Point{
		{6, 6},   // 0: near q, reverse skyline point
		{9, 9},   // 1: dominated by 0 w.r.t. itself
		{40, 40}, // 2: far, dominated by everything
	}
	e, err := NewCertainEngine(pts)
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 3 || e.Dims() != 2 {
		t.Fatalf("Len/Dims = %d/%d", e.Len(), e.Dims())
	}
	if !e.Point(1).Equal(Point{9, 9}) {
		t.Fatal("Point accessor broken")
	}
	q := Point{5, 5}
	if !e.IsReverseSkylinePoint(0, q) {
		t.Fatal("point 0 should be a reverse skyline point")
	}
	rsl := e.ReverseSkyline(q)
	if len(rsl) == 0 || rsl[0] != 0 {
		t.Fatalf("ReverseSkyline = %v", rsl)
	}

	res, err := e.Explain(2, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Causes) != res.Candidates {
		t.Fatal("Lemma 7: every candidate is a cause")
	}
	for _, c := range res.Causes {
		if math.Abs(c.Responsibility-1/float64(res.Candidates)) > 1e-12 {
			t.Fatalf("responsibility = %v", c.Responsibility)
		}
	}
	naive, err := e.ExplainNaive(2, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(naive.Causes) != len(res.Causes) {
		t.Fatalf("NaiveII disagreement: %v vs %v", naive.Causes, res.Causes)
	}
	if naive.SubsetsExamined == 0 && res.Candidates > 1 {
		t.Fatal("NaiveII should pay subset verifications")
	}
	if _, err := e.Explain(0, q); !errors.Is(err, ErrNotNonAnswer) {
		t.Fatalf("expected ErrNotNonAnswer, got %v", err)
	}
	e.ResetCounters()
	if _, err := e.Explain(2, q); err != nil {
		t.Fatal(err)
	}
	if e.NodeAccesses() == 0 {
		t.Fatal("Explain should cost node accesses")
	}
}

func TestPDFEngine(t *testing.T) {
	objs := []*PDFObject{
		NewUniformPDFObject(0, Rect{Min: Point{20, 20}, Max: Point{24, 24}}),
		NewUniformPDFObject(1, Rect{Min: Point{8, 8}, Max: Point{12, 12}}),
		NewGaussianPDFObject(2, Rect{Min: Point{55, 55}, Max: Point{60, 60}}, nil, nil),
	}
	e, err := NewPDFEngine(objs)
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 3 || e.Dims() != 2 {
		t.Fatalf("Len/Dims = %d/%d", e.Len(), e.Dims())
	}
	if e.Object(2).Kind != GaussianPDF {
		t.Fatal("Object accessor broken")
	}
	q := Point{0, 0}
	if pr := e.Prob(0, q, 0); pr != 0 {
		t.Fatalf("Pr = %v, want 0 (object 1 always dominates)", pr)
	}
	res, err := e.Explain(0, q, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Causes) != 1 || res.Causes[0].ID != 1 || !res.Causes[0].Counterfactual {
		t.Fatalf("causes = %v", res.Causes)
	}
	e.ResetCounters()
	if _, err := e.Explain(0, q, 0.5, Options{}); err != nil {
		t.Fatal(err)
	}
	if e.NodeAccesses() == 0 {
		t.Fatal("Explain should cost node accesses")
	}
}

func TestGeneratorFacade(t *testing.T) {
	objs, err := GenerateUncertain(UncertainConfig{N: 50, Dims: 2, RMax: 5, Seed: 1})
	if err != nil || len(objs) != 50 {
		t.Fatalf("GenerateUncertain: %v, %d", err, len(objs))
	}
	if _, err := NewEngine(objs); err != nil {
		t.Fatal(err)
	}
	pts, err := GenerateCertain(CertainConfig{N: 50, Dims: 2, Kind: AntiCorrelated, Seed: 1})
	if err != nil || len(pts) != 50 {
		t.Fatalf("GenerateCertain: %v, %d", err, len(pts))
	}
	if _, err := NewCertainEngine(pts); err != nil {
		t.Fatal(err)
	}
	pdfObjs, err := GenerateUncertainPDF(UncertainConfig{N: 20, Dims: 2, RMax: 5, Seed: 1}, UniformPDF)
	if err != nil || len(pdfObjs) != 20 {
		t.Fatalf("GenerateUncertainPDF: %v, %d", err, len(pdfObjs))
	}
	if _, err := NewPDFEngine(pdfObjs); err != nil {
		t.Fatal(err)
	}
	nba := GenerateNBA(1)
	if len(nba.Objects) != 3542 || len(nba.Names) != 3542 {
		t.Fatalf("GenerateNBA: %d objects, %d names", len(nba.Objects), len(nba.Names))
	}
	car := GenerateCarDB(1)
	if len(car) != 45311 {
		t.Fatalf("GenerateCarDB: %d", len(car))
	}
	// Bad config propagates.
	if _, err := GenerateUncertain(UncertainConfig{N: -1, Dims: 2}); err == nil {
		t.Error("bad config should fail")
	}
	if _, err := GenerateCertain(CertainConfig{N: -1, Dims: 2}); err == nil {
		t.Error("bad config should fail")
	}
}
