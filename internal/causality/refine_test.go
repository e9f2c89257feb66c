package causality

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/crsky/crsky/internal/ctxutil"
	"github.com/crsky/crsky/internal/prob"
)

// TestTightenGainsZeroCoverage pins the per-sample zero-coverage
// refinement of the admissible bound on a hand-built instance: candidate A
// dominates sample 0 with probability 1 and is counterfactual, so Lemma 5
// keeps it active through every contingency search and sample 0's mass is
// permanently dead — the other candidates' gains must shed their sample-0
// share, and the search must still find the exact causes.
func TestTightenGainsZeroCoverage(t *testing.T) {
	weights := []float64{0.5, 0.5}
	d := [][]float64{
		{1, 0},     // A: blocks sample 0 outright, inert on sample 1
		{0.1, 0.9}, // B
		{0.1, 0.8}, // C
	}
	alpha := 0.2
	e := prob.NewEvaluatorRaw(weights, d)

	// Sanity: A is the sole counterfactual at this α.
	if pr := e.PrWithout(0); prob.Less(pr, alpha) {
		t.Fatalf("PrWithout(A) = %v, scenario wants a counterfactual A", pr)
	}
	for j := 1; j < 3; j++ {
		if pr := e.PrWithout(j); prob.GEq(pr, alpha) {
			t.Fatalf("PrWithout(%d) = %v, scenario wants a non-counterfactual", j, pr)
		}
	}

	r := newRefiner(context.Background(), e, []int{0, 1, 2}, alpha, Options{})
	rawB, rawC := r.gains[1], r.gains[2]
	r.classify()
	if !r.counterfactual[0] || r.counterfactual[1] || r.counterfactual[2] {
		t.Fatalf("classify marks = %v", r.counterfactual)
	}
	r.tightenGains()

	// Each candidate's gain drops by exactly its sample-0 mass (w=0.5,
	// d=0.1): the blocked sample can never pay out.
	for j, raw := range map[int]float64{1: rawB, 2: rawC} {
		want := raw - 0.5*d[j][0]
		if math.Abs(r.gains[j]-want) > 1e-12 {
			t.Fatalf("tightened gain[%d] = %v, want %v (raw %v)", j, r.gains[j], want, raw)
		}
	}

	// End-to-end through run(): A counterfactual (responsibility 1), B and
	// C mutual contingencies (responsibility 1/2 each).
	causes, err := newRefiner(context.Background(), prob.NewEvaluatorRaw(weights, d),
		[]int{0, 1, 2}, alpha, Options{}).run()
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]float64{0: 1, 1: 0.5, 2: 0.5}
	if len(causes) != len(want) {
		t.Fatalf("causes = %v, want 3", causes)
	}
	for _, c := range causes {
		if math.Abs(c.Responsibility-want[c.ID]) > 1e-12 {
			t.Fatalf("cause %d responsibility %v, want %v", c.ID, c.Responsibility, want[c.ID])
		}
	}
}

// TestTightenGainsNoBlockerNoChange: without a probability-1 blocker among
// the counterfactuals the gains are untouched (the mask is nil and the
// bound reduces to the plain dominance mass).
func TestTightenGainsNoBlockerNoChange(t *testing.T) {
	weights := []float64{0.5, 0.5}
	d := [][]float64{
		{0.95, 0.9}, // counterfactual at α=0.01, but never d == 1
		{0.3, 0.4},
	}
	e := prob.NewEvaluatorRaw(weights, d)
	r := newRefiner(context.Background(), e, []int{0, 1}, 0.01, Options{})
	before := append([]float64(nil), r.gains...)
	r.classify()
	if !r.counterfactual[0] {
		t.Fatalf("scenario wants candidate 0 counterfactual (marks %v)", r.counterfactual)
	}
	r.tightenGains()
	for j := range before {
		if r.gains[j] != before[j] {
			t.Fatalf("gain[%d] changed %v -> %v without a hard blocker", j, before[j], r.gains[j])
		}
	}
}

// TestRepairFloor pins the minimum-repair seed on a hand-built instance:
// four candidates each dominating an's one sample with probability 1/2, so
// Pr(an) = 1/16 and any three removals (and no fewer) lift it to α = 1/2.
// |R*| = 3 gives the floor 2; every candidate is a cause with a two-member
// contingency set. The seed must leave the refinement's evaluator as it
// was, count its exact-phase leaves as examined subsets, fail on the
// refinement's budget, and surface a cancellation as the typed error. A
// counterfactual candidate must not void the floor: Lemma 5 keeps it out
// of every contingency set, so R* is taken over the other candidates.
func TestRepairFloor(t *testing.T) {
	weights := []float64{1}
	d := [][]float64{{0.5}, {0.5}, {0.5}, {0.5}}
	ids := []int{0, 1, 2, 3}
	const alpha = 0.5
	newR := func(ctx context.Context, opts Options) *refiner {
		r := newRefiner(ctx, prob.NewEvaluatorRaw(weights, d), ids, alpha, opts)
		r.classify()
		return r
	}

	r := newR(context.Background(), Options{})
	floor, err := r.repairFloor()
	if err != nil || floor != 2 {
		t.Fatalf("repairFloor = %d, %v; want 2", floor, err)
	}
	if r.e.NumActive() != len(ids) || r.e.Pr() != 1.0/16 {
		t.Fatalf("seed disturbed the evaluator: %d active, Pr=%v", r.e.NumActive(), r.e.Pr())
	}
	if r.subsetsCount() == 0 {
		t.Fatal("the seed's exact-phase leaves were not counted")
	}

	if _, err := newR(context.Background(), Options{MaxSubsets: 1}).repairFloor(); !errors.Is(err, ErrSubsetBudget) {
		t.Fatalf("seed over budget returned %v, want ErrSubsetBudget", err)
	}

	// The seed is the refinement's first charge.
	_, err = newR(newCountdownCtx(0), Options{}).run()
	var ce *ctxutil.CanceledError
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled seed returned %v, want a *ctxutil.CanceledError", err)
	}

	causes, err := newR(context.Background(), Options{}).run()
	if err != nil || len(causes) != len(ids) {
		t.Fatalf("run = %v, %v; want %d causes", causes, err, len(ids))
	}
	for _, c := range causes {
		if len(c.Contingency) != 2 {
			t.Fatalf("cause %d has |Γ|=%d, want 2", c.ID, len(c.Contingency))
		}
	}

	// Candidate 0 blocks sample 0 outright and is counterfactual at
	// α = 0.45 ({0} alone is a repair); candidates 1–4 each halve sample 1,
	// and all four must go to lift Pr to 0.5. Over them |R*| = 4, so the
	// floor is 3 and each of 1–4 is a cause with a three-member set.
	cfWeights := []float64{0.5, 0.5}
	cfD := [][]float64{{1, 0}, {0, 0.5}, {0, 0.5}, {0, 0.5}, {0, 0.5}}
	cfIDs := []int{0, 1, 2, 3, 4}
	newCF := func(alpha float64, d [][]float64) *refiner {
		r := newRefiner(context.Background(), prob.NewEvaluatorRaw(cfWeights, d), cfIDs[:len(d)], alpha, Options{})
		r.classify()
		return r
	}
	cf := newCF(0.45, cfD)
	if !cf.counterfactual[0] {
		t.Fatalf("scenario wants candidate 0 counterfactual (marks %v)", cf.counterfactual)
	}
	if floor, err := cf.repairFloor(); err != nil || floor != 3 {
		t.Fatalf("repairFloor with a counterfactual candidate = %d, %v; want 3", floor, err)
	}
	causes, err = newCF(0.45, cfD).run()
	if err != nil || len(causes) != len(cfIDs) {
		t.Fatalf("run = %v, %v; want %d causes", causes, err, len(cfIDs))
	}
	for _, c := range causes {
		want := 3
		if c.ID == 0 {
			want = 0
		}
		if len(c.Contingency) != want {
			t.Fatalf("cause %d has |Γ|=%d, want %d", c.ID, len(c.Contingency), want)
		}
	}

	// With one halving candidate left, the candidates other than 0 cannot
	// lift Pr above 0.5, so at α = 0.6 there is no floor.
	if floor, err := newCF(0.6, cfD[:2]).repairFloor(); err != nil || floor != 0 {
		t.Fatalf("repairFloor with no repair beside the counterfactual = %d, %v; want 0", floor, err)
	}
}
