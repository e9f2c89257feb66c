package prsq

import (
	"context"
	"reflect"
	"testing"
	"time"

	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/uncertain"
)

func TestApproxOptionsBudget(t *testing.T) {
	var ap ApproxOptions
	if got := ap.Iters(); got < 16 {
		t.Fatalf("default iters %d below floor", got)
	}
	// Unclamped: the achieved half-width must meet the requested epsilon.
	ap = ApproxOptions{Epsilon: 0.05, Confidence: 0.95}
	if hw := ap.HalfWidth(ap.Iters()); hw > ap.Epsilon+1e-12 {
		t.Fatalf("half-width %g exceeds requested epsilon %g", hw, ap.Epsilon)
	}
	// Clamped: MaxIters wins and the reported width widens honestly.
	ap = ApproxOptions{Epsilon: 0.001, MaxIters: 100}
	if got := ap.Iters(); got != 100 {
		t.Fatalf("clamped iters = %d, want 100", got)
	}
	if hw := ap.HalfWidth(100); hw <= 0.001 {
		t.Fatalf("clamped half-width %g should exceed the unreachable epsilon", hw)
	}
	// Tighter budgets cost more iterations.
	loose := ApproxOptions{Epsilon: 0.1}.Iters()
	tight := ApproxOptions{Epsilon: 0.01}.Iters()
	if tight <= loose {
		t.Fatalf("iters(0.01)=%d not above iters(0.1)=%d", tight, loose)
	}
}

// TestQueryApproxSampleModel checks the approximate tier against the exact
// one: bound-decided objects must match exactly (the filter stage is
// shared), estimated objects must carry sane intervals that cover the true
// probability at roughly the configured confidence, and the whole result
// must be deterministic in the seed regardless of parallelism.
func TestQueryApproxSampleModel(t *testing.T) {
	ds, err := dataset.GenerateUncertain(dataset.LUrU(400, 2, 50, 900, 23))
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Point{5000, 5000}
	alpha := 0.5
	ap := ApproxOptions{Epsilon: 0.02, Confidence: 0.95, Seed: 7}

	exact, _ := queryStats(t, ds, q, alpha, Options{})
	res, st, err := QueryApproxStatsCtx(context.Background(), ds, q, alpha, Options{}, ap)
	if err != nil {
		t.Fatal(err)
	}
	if st.Objects != ds.Len() {
		t.Fatalf("stats objects %d want %d", st.Objects, ds.Len())
	}
	if res.Iters != ap.Iters() {
		t.Fatalf("iters %d want %d", res.Iters, ap.Iters())
	}

	estimated := map[int]bool{}
	misses := 0
	for i, iv := range res.Intervals {
		estimated[iv.ID] = true
		if i > 0 && res.Intervals[i-1].ID >= iv.ID {
			t.Fatalf("intervals not ascending at %d", i)
		}
		if iv.Lo < 0 || iv.Hi > 1 || iv.Lo > iv.Pr || iv.Pr > iv.Hi {
			t.Fatalf("malformed interval %+v", iv)
		}
		truth := prob.PrReverseSkyline(ds.Objects[iv.ID], q, ds.Objects)
		if truth < iv.Lo-1e-12 || truth > iv.Hi+1e-12 {
			misses++
		}
	}
	if len(res.Intervals) == 0 {
		t.Fatal("workload produced no undecided band; pick a harder config")
	}
	// Hoeffding is conservative, so realized coverage sits well above the
	// nominal 95%; a tenth of the band missing would be a real defect.
	if allowed := 1 + len(res.Intervals)/10; misses > allowed {
		t.Fatalf("%d/%d intervals miss the true probability", misses, len(res.Intervals))
	}

	// Bound-decided membership is exact: answers and exact answers may only
	// disagree on estimated objects.
	inExact := map[int]bool{}
	for _, id := range exact {
		inExact[id] = true
	}
	inApprox := map[int]bool{}
	for _, id := range res.Answers {
		inApprox[id] = true
	}
	for id := 0; id < ds.Len(); id++ {
		if inExact[id] != inApprox[id] && !estimated[id] {
			t.Fatalf("bound-decided object %d flips between tiers", id)
		}
	}

	// Seeded determinism across worker counts.
	for _, par := range []int{1, 4} {
		again, _, err := QueryApproxStatsCtx(context.Background(), ds, q, alpha, Options{Parallel: par}, ap)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, again) {
			t.Fatalf("parallel=%d result differs from baseline", par)
		}
	}
	// A different seed is allowed to move estimates but not the shape.
	other, _, err := QueryApproxStatsCtx(context.Background(), ds, q, alpha, Options{}, ApproxOptions{Epsilon: 0.02, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(other.Intervals) != len(res.Intervals) {
		t.Fatalf("seed changed the estimated band: %d vs %d", len(other.Intervals), len(res.Intervals))
	}
}

func TestQueryApproxPDFModel(t *testing.T) {
	objs, err := dataset.GenerateUncertainPDF(dataset.LUrU(120, 2, 50, 600, 5), uncertain.Uniform)
	if err != nil {
		t.Fatal(err)
	}
	set, err := causality.NewPDFSet(objs)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Point{5000, 5000}
	alpha := 0.6
	ap := ApproxOptions{Epsilon: 0.03, Seed: 3}
	res, _, err := QueryApproxPDFStatsCtx(context.Background(), set, q, alpha, Options{}, ap)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) == 0 {
		t.Fatal("pdf workload produced no undecided band")
	}
	misses := 0
	for _, iv := range res.Intervals {
		if iv.Lo < 0 || iv.Hi > 1 || iv.Lo > iv.Pr || iv.Pr > iv.Hi {
			t.Fatalf("malformed interval %+v", iv)
		}
		truth := prob.PrReverseSkylinePDF(set.Objects[iv.ID], q, set.Objects, 0)
		if truth < iv.Lo-1e-12 || truth > iv.Hi+1e-12 {
			misses++
		}
	}
	// The quadrature truth itself carries discretization error, so allow a
	// slightly larger slack than the sample-model test.
	if allowed := 2 + len(res.Intervals)/8; misses > allowed {
		t.Fatalf("%d/%d pdf intervals miss the quadrature truth", misses, len(res.Intervals))
	}
	// Determinism across parallelism.
	again, _, err := QueryApproxPDFStatsCtx(context.Background(), set, q, alpha, Options{Parallel: 4}, ap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatal("pdf approx result depends on worker count")
	}
}

func TestApproxCancellation(t *testing.T) {
	ds, err := dataset.GenerateUncertain(dataset.LUrU(400, 2, 50, 900, 23))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := QueryApproxStatsCtx(ctx, ds, geom.Point{5000, 5000}, 0.5, Options{}, ApproxOptions{}); err == nil {
		t.Fatal("canceled context not surfaced")
	}
}

func TestJoinSliceSplitsDeadline(t *testing.T) {
	parent, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	child, endSlice := Options{StageBudget: true}.joinSlice(parent)
	defer endSlice()
	pd, _ := parent.Deadline()
	cd, ok := child.Deadline()
	if !ok || !cd.Before(pd) {
		t.Fatalf("join slice deadline %v not before parent %v", cd, pd)
	}
	// Without StageBudget or without a deadline the context is untouched.
	same, end2 := Options{}.joinSlice(parent)
	end2()
	if same != parent {
		t.Fatal("joinSlice without StageBudget must be identity")
	}
	same, end3 := Options{StageBudget: true}.joinSlice(context.Background())
	end3()
	if same != context.Background() {
		t.Fatal("joinSlice without a deadline must be identity")
	}
}

func TestExactApproxResult(t *testing.T) {
	res := ExactApproxResult(nil, ApproxOptions{})
	if !res.Exact || res.Answers == nil || res.Intervals == nil {
		t.Fatalf("bad exact wrapper %+v", res)
	}
}
