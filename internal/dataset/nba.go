package dataset

import (
	"fmt"
	"math/rand"

	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/uncertain"
)

// NBA is the seeded stand-in for the paper's real NBA dataset
// (www.databasebasketball.com): 3,542 players with 15,272 season records
// over four attributes — total points (PTS), field goals (FGA), rebounds
// (REB) and assists (AST). Every player is one uncertain object whose
// season records are its equally probable samples, exactly as in
// Section 5.1.
type NBA struct {
	*Uncertain
	Names []string
}

// NBADims is the attribute count of the NBA dataset (PTS, FGA, REB, AST).
const NBADims = 4

// NBAAttributes names the four selected attributes in order.
var NBAAttributes = [NBADims]string{"PTS", "FGA", "REB", "AST"}

// GenerateNBA synthesizes the NBA stand-in. The generator reproduces the
// structural properties the CP case study depends on: ~3.5k players with
// 1–17 seasons each (≈15k records total), heavy-tailed skill so that a few
// dozen elite players dominate mid-tier query profiles, per-season
// variation within a career, and realistic attribute scales/correlations
// (scorers shoot a lot; big men rebound; guards assist).
func GenerateNBA(seed int64) *NBA {
	const players = 3542
	rng := rand.New(rand.NewSource(seed))
	objs := make([]*uncertain.Object, players)
	names := make([]string, players)
	for i := 0; i < players; i++ {
		// Career skill: heavy-tailed in (0, 0.8]. Roughly 2% elite above.
		skill := rng.Float64()
		skill = skill * skill * 0.8 // quadratic tail toward 0: most players modest
		elite := rng.Float64() < 0.02
		if elite {
			skill = 0.85 + rng.Float64()*0.15 // elite tier
		}
		// Role mix: scorer / big / playmaker weights.
		scorer := 0.4 + rng.Float64()*0.6
		big := rng.Float64()
		guard := rng.Float64()

		seasons := 1 + rng.Intn(17)
		locs := make([]geom.Point, seasons)
		for s := 0; s < seasons; s++ {
			// Season form: mid-career peak with noise.
			peak := 1 - absf(float64(s)-float64(seasons)/2)/float64(seasons+1)
			form := skill * (0.55 + 0.45*peak) * (0.8 + 0.4*rng.Float64())
			pts := form * scorer * 2800
			fga := pts * (0.55 + 0.25*rng.Float64()) // shots track points
			reb := form * big * 1400
			ast := form * guard * 1000
			locs[s] = geom.Point{
				jitter(rng, pts, 40),
				jitter(rng, fga, 30),
				jitter(rng, reb, 25),
				jitter(rng, ast, 20),
			}
		}
		objs[i] = uncertain.NewUniform(i, locs)
		names[i] = nbaName(rng, i, elite)
	}
	return &NBA{Uncertain: &Uncertain{Objects: objs}, Names: names}
}

func jitter(rng *rand.Rand, v, sd float64) float64 {
	v += rng.NormFloat64() * sd
	if v < 0 {
		return 0
	}
	return v
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// nbaName produces a deterministic synthetic player name; elite players get
// a "Star" prefix so case-study output is self-explanatory without using
// real players' names.
func nbaName(rng *rand.Rand, id int, elite bool) string {
	first := firstNames[rng.Intn(len(firstNames))]
	last := lastNames[rng.Intn(len(lastNames))]
	if elite {
		return fmt.Sprintf("Star %s %s #%d", first, last, id)
	}
	return fmt.Sprintf("%s %s #%d", first, last, id)
}

var firstNames = []string{
	"Alex", "Ben", "Cory", "Dan", "Eli", "Finn", "Gus", "Hank", "Ivan",
	"Jay", "Kai", "Luke", "Milo", "Nate", "Omar", "Pete", "Quin", "Ray",
	"Sam", "Theo", "Umar", "Vic", "Walt", "Xavi", "Yuri", "Zane",
}

var lastNames = []string{
	"Archer", "Brooks", "Carter", "Dawson", "Ellis", "Foster", "Grant",
	"Hayes", "Irwin", "Jordan-Smith", "Keller", "Lawson", "Mercer",
	"Norris", "Owens", "Parker", "Quincy", "Reeves", "Sawyer", "Turner",
	"Usher", "Vance", "Walker", "Xenos", "Young", "Zeller",
}

// TotalRecords returns the summed season-record count across players.
func (n *NBA) TotalRecords() int {
	total := 0
	for _, o := range n.Objects {
		total += len(o.Samples)
	}
	return total
}
