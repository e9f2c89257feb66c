package crsky_test

import (
	"context"
	"fmt"

	crsky "github.com/crsky/crsky"
)

// The paper's core task: explain why an uncertain object is missing from a
// probabilistic reverse skyline result, with responsibilities.
func ExampleEngine_ExplainCtx() {
	objects := []*crsky.Object{
		crsky.NewUniformObject(0, []crsky.Point{{20, 20}, {24, 24}}), // the non-answer
		crsky.NewUniformObject(1, []crsky.Point{{10, 10}, {11, 11}}), // blocks it in every world
		crsky.NewCertainObject(2, crsky.Point{-70, -70}),
	}
	engine, _ := crsky.NewEngine(objects)
	q := crsky.Point{0, 0}

	res, _ := engine.ExplainCtx(context.Background(), 0, q, 0.5, crsky.Options{})
	for _, c := range res.Causes {
		fmt.Printf("cause %d: responsibility %.0f, counterfactual %v\n",
			c.ID, c.Responsibility, c.Counterfactual)
	}
	// Output:
	// cause 1: responsibility 1, counterfactual true
}

// Certain data reduces to algorithm CR: one window query, no verification,
// all causes share responsibility 1/|Cc| (Lemma 7).
func ExampleCertainEngine_ExplainCtx() {
	points := []crsky.Point{
		{40, 40}, // the non-answer
		{25, 25}, // dominates q w.r.t. it
		{30, 35}, // dominates q w.r.t. it
		{-50, 90},
	}
	engine, _ := crsky.NewCertainEngine(points)
	q := crsky.Point{10, 10}

	res, _ := engine.ExplainCtx(context.Background(), 0, q, 1, crsky.Options{})
	fmt.Printf("%d causes, responsibility %.2f each\n",
		len(res.Causes), res.Causes[0].Responsibility)
	// Output:
	// 2 causes, responsibility 0.50 each
}

// RepairCtx answers the actionable follow-up: the smallest competitor set
// whose removal brings the object back into the result.
func ExampleEngine_RepairCtx() {
	objects := []*crsky.Object{
		crsky.NewUniformObject(0, []crsky.Point{{20, 20}, {24, 24}}),
		crsky.NewUniformObject(1, []crsky.Point{{10, 10}, {11, 11}}),
		crsky.NewUniformObject(2, []crsky.Point{{15, 15}, {99, 99}}),
	}
	engine, _ := crsky.NewEngine(objects)
	rep, _ := engine.RepairCtx(context.Background(), 0, crsky.Point{0, 0}, 0.5, crsky.Options{})
	fmt.Printf("remove %v (exact=%v) -> Pr=%.2f\n", rep.Removed, rep.Exact, rep.NewPr)
	// Output:
	// remove [1] (exact=true) -> Pr=0.50
}

// Reverse top-k causality: the paper's future-work extension in closed form.
func ExampleExplainReverseTopK() {
	products := []crsky.Point{{1}, {2}, {3}, {4}, {9}}
	w := crsky.Point{1} // the user's weights
	q := crsky.Point{5} // our product: 4 products score better
	res, _ := crsky.ExplainReverseTopK(products, w, q, 2)
	fmt.Printf("%d causes, responsibility 1/%d each\n",
		len(res.Causes), int(1/res.Causes[0].Responsibility+0.5))
	// Output:
	// 4 causes, responsibility 1/3 each
}
