// NBA recruiting: the paper's motivating scenario (and its Table-3 case
// study). A coach looks for players whose season records make a new
// position profile part of their dynamic skyline with high probability; a
// player missing from the candidate list asks "what causes me to be
// unqualified, and how much does each competitor matter?".
//
// Run with: go run ./examples/nba
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	crsky "github.com/crsky/crsky"
)

func main() {
	// Synthetic stand-in for the paper's NBA dataset: 3,542 players, one
	// uncertain object per player, one sample per season over
	// (PTS, FGA, REB, AST).
	nba := crsky.GenerateNBA(1)
	engine, err := crsky.NewEngine(nba.Objects)
	if err != nil {
		log.Fatal(err)
	}

	// The position profile the coach is hiring for (the paper's q).
	q := crsky.Point{3500, 1500, 600, 800}
	const alpha = 0.5

	// Find a mid-tier player who is NOT a recruiting candidate and has a
	// tractable competitor set.
	rng := rand.New(rand.NewSource(7))
	var player int = -1
	var res *crsky.Explanation
	for _, id := range rng.Perm(engine.Len()) {
		r, err := engine.ExplainCtx(context.Background(), id, q, alpha, crsky.Options{MaxCandidates: 60, MaxSubsets: 200_000})
		if err != nil {
			continue
		}
		if len(r.Causes) >= 5 {
			player, res = id, r
			break
		}
	}
	if player < 0 {
		log.Fatal("no suitable non-candidate player found")
	}

	fmt.Printf("player %q is not a recruiting candidate for profile %v (Pr=%.3f < α=%.1f)\n",
		nba.Names[player], q, res.Pr, alpha)
	fmt.Printf("the %d players causing this, by responsibility:\n", len(res.Causes))
	for i, c := range res.Causes {
		if i >= 26 { // Table 3 lists 26 causes
			fmt.Printf("  ... and %d more\n", len(res.Causes)-i)
			break
		}
		fmt.Printf("  %-28s responsibility 1/%d\n", nba.Names[c.ID], int(1/c.Responsibility+0.5))
	}
	fmt.Println("\ninterpretation: beating the highest-responsibility competitors is the")
	fmt.Println("shortest path into the candidate list (their contingency sets are smallest).")
}
