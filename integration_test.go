package crsky

import (
	"context"
	"errors"
	"testing"
)

// TestLargeScaleEndToEnd drives the whole pipeline at a realistic scale:
// generate a 50K-object uncertain dataset, locate non-answers, explain them
// with CP (serial and parallel), independently verify every explanation,
// and confirm the suggested repairs work. Skipped with -short.
func TestLargeScaleEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale integration test")
	}
	objs, err := GenerateUncertain(UncertainConfig{N: 50_000, Dims: 3, RMax: 5, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := NewEngine(objs)
	if err != nil {
		t.Fatal(err)
	}
	q := Point{4200, 5100, 4800}
	const alpha = 0.6
	ctx := context.Background()

	explained := 0
	var filterIO int64
	for id := 0; id < engine.Len() && explained < 10; id += 17 {
		res, err := engine.ExplainCtx(context.Background(), id, q, alpha, Options{MaxCandidates: 250, MaxSubsets: 500_000})
		if err != nil {
			if errors.Is(err, ErrNotNonAnswer) || errors.Is(err, ErrTooManyCandidates) ||
				errors.Is(err, ErrSubsetBudget) {
				continue
			}
			t.Fatal(err)
		}
		explained++
		filterIO += res.FilterNodeAccesses

		// The explanation must survive independent Definition-1 checking.
		if err := engine.VerifyCtx(ctx, q, alpha, res); err != nil {
			t.Fatalf("an=%d: verification failed: %v", id, err)
		}
		// Parallel refinement agrees with serial.
		par, err := engine.ExplainCtx(context.Background(), id, q, alpha, Options{MaxCandidates: 250, MaxSubsets: 500_000, Parallel: 4})
		if err != nil {
			t.Fatalf("an=%d parallel: %v", id, err)
		}
		if len(par.Causes) != len(res.Causes) {
			t.Fatalf("an=%d: parallel %d causes vs serial %d", id, len(par.Causes), len(res.Causes))
		}
		// The repair must lift the object over the threshold.
		rep, err := engine.RepairCtx(ctx, id, q, alpha, Options{MaxSubsets: 500_000})
		if err != nil {
			t.Fatalf("an=%d repair: %v", id, err)
		}
		if rep.NewPr < alpha-1e-9 {
			t.Fatalf("an=%d: repair reaches only Pr=%v", id, rep.NewPr)
		}
		// Counterfactual causes and singleton exact repairs line up.
		if len(res.Causes) > 0 && res.Causes[0].Counterfactual && rep.Exact && len(rep.Removed) != 1 {
			t.Fatalf("an=%d: counterfactual cause but repair size %d", id, len(rep.Removed))
		}
	}
	if explained < 5 {
		t.Fatalf("only %d objects explained; workload too easy or too hard", explained)
	}
	if filterIO == 0 {
		t.Fatal("no I/O recorded")
	}
}
