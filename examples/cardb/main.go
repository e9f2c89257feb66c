// Used-car market analysis: the paper's Table-4 case study on certain
// data. A dealer profiles a hypothetical car q = (price, mileage); cars
// with q in their dynamic skyline are the ones whose sellers should see q
// as a competitor. For a car missing from that reverse skyline, CR lists
// the cars that cause the absence — each one strictly closer to the car
// than q on both attributes.
//
// Run with: go run ./examples/cardb
package main

import (
	"context"
	"fmt"
	"log"

	crsky "github.com/crsky/crsky"
)

func main() {
	// Synthetic stand-in for the paper's CarDB: 45,311 (price, mileage)
	// listings, negatively correlated.
	cars := crsky.GenerateCarDB(1)
	engine, err := crsky.NewCertainEngine(cars)
	if err != nil {
		log.Fatal(err)
	}

	// The dealer's reference profile (the paper's q).
	q := crsky.Point{11580, 49000}

	// The paper explains the non-answer an ≈ (7510, 10180): the cheap
	// low-mileage car closest to that profile.
	an := nearest(cars, crsky.Point{7510, 10180})
	fmt.Printf("car #%d = (price %.0f, mileage %.0f); reference q = (%.0f, %.0f)\n",
		an, cars[an][0], cars[an][1], q[0], q[1])

	ctx := context.Background()
	pr, _, err := engine.ProbCtx(ctx, an, q, crsky.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if pr == 1 {
		fmt.Println("this car IS in the reverse skyline of q — nothing to explain.")
		return
	}
	res, err := engine.ExplainCtx(ctx, an, q, 1, crsky.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("it is a non-answer; the %d cars causing this (responsibility 1/%d each):\n",
		len(res.Causes), res.Candidates)
	fmt.Printf("  %-12s %-12s %s\n", "price", "mileage", "why it blocks")
	for i, c := range res.Causes {
		if i >= 12 {
			fmt.Printf("  ... and %d more\n", len(res.Causes)-i)
			break
		}
		p := cars[c.ID]
		fmt.Printf("  %-12.0f %-12.0f |Δprice|=%.0f<%.0f, |Δmileage|=%.0f<%.0f (vs q)\n",
			p[0], p[1],
			abs(p[0]-cars[an][0]), abs(q[0]-cars[an][0]),
			abs(p[1]-cars[an][1]), abs(q[1]-cars[an][1]))
	}
	fmt.Printf("I/O: %d node accesses (one window query — Lemma 7 needs no verification)\n",
		res.FilterNodeAccesses)
}

func nearest(pts []crsky.Point, target crsky.Point) int {
	best, bestD := 0, -1.0
	for i, p := range pts {
		d := p.Dist(target)
		if bestD < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
