// Quickstart: build a tiny uncertain dataset, run a probabilistic reverse
// skyline query, and explain why one object is missing from the result.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	crsky "github.com/crsky/crsky"
)

func main() {
	// Five uncertain objects in 2-D; each sample is one possible position
	// with equal probability (think: noisy measurements of each entity).
	objects := []*crsky.Object{
		crsky.NewUniformObject(0, []crsky.Point{{20, 20}, {24, 24}}), // blocked
		crsky.NewUniformObject(1, []crsky.Point{{10, 10}, {11, 11}}), // blocks 0 in every world
		crsky.NewUniformObject(2, []crsky.Point{{15, 15}, {99, 99}}), // blocks 0 half the time
		crsky.NewCertainObject(3, crsky.Point{-70, -70}),
		crsky.NewUniformObject(4, []crsky.Point{{300, 3}, {295, 5}}),
	}
	engine, err := crsky.NewEngine(objects)
	if err != nil {
		log.Fatal(err)
	}

	q := crsky.Point{0, 0}
	const alpha = 0.5

	// Which objects count q among their dynamic skyline with probability
	// at least alpha?
	answers, _, err := engine.QueryCtx(context.Background(), q, alpha, crsky.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("probabilistic reverse skyline of %v at α=%.1f: %v\n", q, alpha, answers)

	// Object 0 is missing. Why?
	fmt.Printf("Pr(object 0 is a reverse skyline point) = %.2f\n", engine.Prob(0, q))
	res, err := engine.Explain(0, q, alpha, crsky.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("object 0 is a non-answer; %d candidate causes, %d actual causes:\n",
		res.Candidates, len(res.Causes))
	for _, c := range res.Causes {
		if c.Counterfactual {
			fmt.Printf("  object %d — responsibility 1 (counterfactual: removing it alone fixes the result)\n", c.ID)
		} else {
			fmt.Printf("  object %d — responsibility 1/%d (with contingency set %v)\n",
				c.ID, int(1/c.Responsibility+0.5), c.Contingency)
		}
	}
	fmt.Printf("I/O spent on the explanation: %d node accesses\n", engine.NodeAccesses())
}
