package crsky

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
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

// probe is the ProbCtx call the facade tests assert on; an engine error
// fails the test.
func probe(t testing.TB, e Querier, id int, q Point, opts QueryOptions) float64 {
	t.Helper()
	pr, _, err := e.ProbCtx(context.Background(), id, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pr
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
	if pr := probe(t, e, 0, q, QueryOptions{}); pr != 0 {
		t.Fatalf("Pr(an) = %v, want 0 (full blocker present)", pr)
	}
	if pr := probe(t, e, 3, q, QueryOptions{}); pr != 1 {
		t.Fatalf("Pr(bystander) = %v, want 1", pr)
	}
	if probe(t, e, 0, q, QueryOptions{}) >= 0.5-1e-9 {
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
	res, err := e.ExplainCtx(context.Background(), 0, q, 0.5, Options{})
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
	if _, err := e.ExplainCtx(context.Background(), 3, q, 0.5, Options{}); !errors.Is(err, ErrNotNonAnswer) {
		t.Fatalf("expected ErrNotNonAnswer, got %v", err)
	}
}

// TestEngineIOAccounting: every call reports its own node accesses, and
// the same call reports the same count however often it runs.
func TestEngineIOAccounting(t *testing.T) {
	e := fixtureEngine(t)
	q := Point{0, 0}
	ctx := context.Background()
	for rep := 0; rep < 2; rep++ {
		res, err := e.ExplainCtx(ctx, 0, q, 0.5, Options{})
		if err != nil {
			t.Fatal(err)
		}
		repair, err := e.RepairCtx(ctx, 0, q, 0.5, Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := e.QueryCtx(ctx, q, 0.5, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.FilterNodeAccesses != 1 || repair.FilterNodeAccesses != 1 || st.NodeAccesses != 1 {
			t.Fatalf("run %d: explain %d, repair %d, query %d node accesses; want 1 each (a one-leaf tree)",
				rep, res.FilterNodeAccesses, repair.FilterNodeAccesses, st.NodeAccesses)
		}
	}
}

// TestConcurrentQueriesCountPerCall: two goroutines querying different
// points on one engine each get exactly the node accesses of their query
// run alone — no call sees another's traversal.
func TestConcurrentQueriesCountPerCall(t *testing.T) {
	objs, err := GenerateUncertain(UncertainConfig{N: 3000, Dims: 2, RMax: 5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(objs)
	if err != nil {
		t.Fatal(err)
	}
	e.Warm()
	ctx := context.Background()
	qs := []Point{{3000, 4000}, {7000, 6500}}
	alone := make([]int64, len(qs))
	for i, q := range qs {
		_, st, err := e.QueryCtx(ctx, q, 0.5, QueryOptions{Parallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		alone[i] = st.NodeAccesses
	}
	if alone[0] == alone[1] {
		t.Fatalf("both points cost %d node accesses; pick points that tell the calls apart", alone[0])
	}
	var wg sync.WaitGroup
	for i, q := range qs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				_, st, err := e.QueryCtx(ctx, q, 0.5, QueryOptions{Parallel: 2})
				if err != nil {
					t.Error(err)
					return
				}
				if st.NodeAccesses != alone[i] {
					t.Errorf("q=%v: concurrent query counted %d node accesses, alone %d", q, st.NodeAccesses, alone[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestExplainBatchFreshEngine runs one ExplainBatchStream on a never-warmed
// Engine and PDFEngine with two item workers. The batch must build the
// lazy R-tree before its fan-out: run under -race (make race), a worker
// that builds it while the other reads it fails the test. Every item must
// equal its single ExplainCtx call, SubsetsExamined included.
func TestExplainBatchFreshEngine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := UncertainConfig{N: 200, Dims: 2, RMax: 5, Seed: 3}
	objs, err := GenerateUncertain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pdfObjs, err := GenerateUncertainPDF(cfg, UniformPDF)
	if err != nil {
		t.Fatal(err)
	}
	fresh := map[string]func() (Explainer, error){
		"sample": func() (Explainer, error) { return NewEngine(objs) },
		"pdf":    func() (Explainer, error) { return NewPDFEngine(pdfObjs) },
	}
	q := Point{5000, 5000}
	opts := Options{MaxCandidates: 12}
	reqs := make([]ExplainRequest, 8)
	for i := range reqs {
		reqs[i] = ExplainRequest{ID: i * 25, Q: q, Alpha: 0.5}
	}
	for model, newEngine := range fresh {
		e, err := newEngine()
		if err != nil {
			t.Fatal(err)
		}
		items := e.ExplainBatchStream(context.Background(), reqs, opts, nil)
		explained := 0
		for i, it := range items {
			want, wantErr := e.ExplainCtx(context.Background(), reqs[i].ID, q, 0.5, opts)
			if fmt.Sprint(it.Err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s item %d: batch error %v, single %v", model, i, it.Err, wantErr)
			}
			if wantErr != nil {
				continue
			}
			explained++
			if !reflect.DeepEqual(it.Result.Causes, want.Causes) || it.Result.SubsetsExamined != want.SubsetsExamined {
				t.Fatalf("%s item %d: batch %v (%d subsets), single %v (%d subsets)", model, i,
					it.Result.Causes, it.Result.SubsetsExamined, want.Causes, want.SubsetsExamined)
			}
		}
		if explained == 0 {
			t.Fatalf("%s: no item was explained; pick objects that are tractable non-answers", model)
		}
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
	if probe(t, e, 0, q, QueryOptions{}) != 1 {
		t.Fatal("point 0 should be a reverse skyline point")
	}
	var rsl []int
	for i := 0; i < e.Len(); i++ {
		if probe(t, e, i, q, QueryOptions{}) == 1 {
			rsl = append(rsl, i)
		}
	}
	if len(rsl) == 0 || rsl[0] != 0 {
		t.Fatalf("reverse skyline by ProbCtx = %v", rsl)
	}

	res, err := e.ExplainCtx(context.Background(), 2, q, 1, Options{})
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
	if _, err := e.ExplainCtx(context.Background(), 0, q, 1, Options{}); !errors.Is(err, ErrNotNonAnswer) {
		t.Fatalf("expected ErrNotNonAnswer, got %v", err)
	}
	if res.FilterNodeAccesses == 0 || naive.FilterNodeAccesses != res.FilterNodeAccesses {
		t.Fatalf("CR read %d nodes, NaiveII %d: both run the same window query",
			res.FilterNodeAccesses, naive.FilterNodeAccesses)
	}
	rep, err := e.RepairCtx(context.Background(), 2, q, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FilterNodeAccesses != res.FilterNodeAccesses {
		t.Fatalf("repair read %d nodes, explanation %d: both run the same window query",
			rep.FilterNodeAccesses, res.FilterNodeAccesses)
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
	if pr, _, err := e.ProbCtx(context.Background(), 0, q, QueryOptions{}); err != nil || pr != 0 {
		t.Fatalf("Pr = %v (err %v), want 0 (object 1 always dominates)", pr, err)
	}
	res, err := e.ExplainCtx(context.Background(), 0, q, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Causes) != 1 || res.Causes[0].ID != 1 || !res.Causes[0].Counterfactual {
		t.Fatalf("causes = %v", res.Causes)
	}
	if res.FilterNodeAccesses == 0 {
		t.Fatal("Explain should cost node accesses")
	}
}

// TestPDFEngineRejectsOversizedQuadNodes asserts that every PDFEngine method
// taking a quadrature resolution rejects one it must not build with an
// error naming it: 25000 nodes per dimension exceeds the per-dimension cap,
// and 128 does not, but its 3-d grid of 128³ ≈ 2.1M nodes exceeds the node
// cap. Unchecked, such a value reaches the quadrature in an evaluation
// worker goroutine, where the k^d node allocation crashes the caller's
// process.
func TestPDFEngineRejectsOversizedQuadNodes(t *testing.T) {
	// One object per octant around q: none dominates another outright, so
	// every object would reach the exact (quadrature) stage.
	objs := make([]*PDFObject, 8)
	for i := range objs {
		lo, hi := make(Point, 3), make(Point, 3)
		for d := range lo {
			sign := float64(1 - 2*(i>>d&1))
			lo[d], hi[d] = min(3*sign, 7*sign), max(3*sign, 7*sign)
		}
		objs[i] = NewUniformPDFObject(i, Rect{Min: lo, Max: hi})
	}
	e, err := NewPDFEngine(objs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := Point{0, 0, 0}
	for _, k := range []int{25000, 128} {
		check := func(method string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), "quadNodes") {
				t.Errorf("%s with quadNodes %d in 3-d: err = %v, want the quadNodes rejection", method, k, err)
			}
		}
		qopts := QueryOptions{QuadNodes: k}
		opts := Options{QuadNodes: k}
		_, _, err := e.QueryCtx(ctx, q, 0.5, qopts)
		check("QueryCtx", err)
		_, _, err = e.QueryBatchStream(ctx, []Point{q, q}, 0.5, qopts, nil)
		check("QueryBatchStream", err)
		_, _, err = e.QueryApprox(ctx, q, 0.5, qopts, ApproxOptions{})
		check("QueryApprox", err)
		_, err = e.ExplainCtx(ctx, 7, q, 0.5, opts)
		check("ExplainCtx", err)
		for _, it := range e.ExplainBatchStream(ctx, []ExplainRequest{{ID: 7, Q: q, Alpha: 0.5}, {ID: 6, Q: q, Alpha: 0.5}}, opts, nil) {
			check(fmt.Sprintf("ExplainBatchStream item %d", it.Index), it.Err)
		}
		_, err = e.RepairCtx(ctx, 7, q, 0.5, opts)
		check("RepairCtx", err)
		check("VerifyCtx", e.VerifyCtx(ctx, q, 0.5, &Explanation{NonAnswer: 7, QuadNodes: k}))
		_, _, err = e.ProbCtx(ctx, 0, q, qopts)
		check("ProbCtx", err)
		_, err = e.ProbabilisticReverseSkylineNaive(q, 0.5, k)
		check("ProbabilisticReverseSkylineNaive", err)
	}

	// The default grid (<= 0) still answers.
	if _, _, err := e.QueryCtx(ctx, q, 0.5, QueryOptions{QuadNodes: -1}); err != nil {
		t.Fatalf("QueryCtx on the default grid: %v", err)
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
