// Sensor monitoring under the continuous pdf model (Section 3.2). Each
// sensor reports a reading with a known error region: a uniform or
// truncated-Gaussian density over a rectangle. A monitoring station q wants
// the sensors that "see" it as a skyline reference with high probability;
// for a sensor that does not, the pdf variant of CP explains which other
// sensors are responsible.
//
// Run with: go run ./examples/sensors
package main

import (
	"context"
	"fmt"
	"log"

	crsky "github.com/crsky/crsky"
)

func main() {
	region := func(x, y, w, h float64) crsky.Rect {
		return crsky.Rect{Min: crsky.Point{x, y}, Max: crsky.Point{x + w, y + h}}
	}
	// Sensor field in 2-D (coordinates in meters). Sensor 0 is the one we
	// will explain; sensors 1–2 sit between it and the station.
	sensors := []*crsky.PDFObject{
		crsky.NewUniformPDFObject(0, region(180, 180, 40, 40)),
		crsky.NewGaussianPDFObject(1, region(80, 80, 30, 30), nil, nil),
		crsky.NewUniformPDFObject(2, region(140, 120, 60, 50)),
		crsky.NewUniformPDFObject(3, region(420, 60, 40, 40)),
		crsky.NewGaussianPDFObject(4, region(60, 420, 50, 40), nil, nil),
	}
	engine, err := crsky.NewPDFEngine(sensors)
	if err != nil {
		log.Fatal(err)
	}

	q := crsky.Point{0, 0} // the monitoring station
	const alpha = 0.6

	ctx := context.Background()
	for id := range sensors {
		pr, _, err := engine.ProbCtx(ctx, id, q, crsky.QueryOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sensor %d: Pr(reverse skyline of station) = %.3f\n", id, pr)
	}

	res, err := engine.ExplainCtx(ctx, 0, q, alpha, crsky.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsensor 0 misses the α=%.1f threshold (Pr=%.3f). Causes:\n", alpha, res.Pr)
	for _, c := range res.Causes {
		kind := sensors[c.ID].Kind
		if c.Counterfactual {
			fmt.Printf("  sensor %d (%s error model) — responsibility 1 (counterfactual)\n", c.ID, kind)
		} else {
			fmt.Printf("  sensor %d (%s error model) — responsibility 1/%d\n",
				c.ID, kind, int(1/c.Responsibility+0.5))
		}
	}
	fmt.Println("\nreading: relocating (or re-calibrating) the top-responsibility sensors")
	fmt.Println("is the cheapest intervention that brings sensor 0 back into the result.")
}
