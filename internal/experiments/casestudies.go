package experiments

import (
	"fmt"
	"math/rand"

	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/stats"
)

// Table3 reproduces the NBA case study (Section 5.2): a mid-tier player is
// not in the probabilistic reverse skyline of a recruiting profile
// q = (3500, 1500, 600, 800) at α = 0.5; CP lists every player causing the
// absence with their responsibilities. The paper found 26 causes led by
// star players; the synthetic stand-in reproduces that shape.
func Table3(cfg Config) error {
	cfg.fillDefaults()
	nba := dataset.GenerateNBA(cfg.Seed)
	q := geom.Point{3500, 1500, 600, 800}
	const alpha = 0.5

	// The paper explains a well-known mid-tier player; here we take the
	// non-answer closest to a mid-tier career profile that has tractable
	// causality structure.
	anID, err := pickNBANonAnswer(nba, q, alpha, cfg)
	if err != nil {
		return err
	}

	res, err := causality.CP(nba.Uncertain, q, anID, alpha, causality.Options{})
	if err != nil {
		return err
	}

	tab := stats.Table{
		Title:  fmt.Sprintf("Table 3: causality and responsibility for %q (α=%.1f, q=%v)", nba.Names[anID], alpha, q),
		Header: []string{"cause", "responsibility", "|Γ|"},
		Caption: fmt.Sprintf("Pr(an)=%.4f, %d candidate causes, %d actual causes; paper found 26 causes led by elite players.",
			res.Pr, res.Candidates, len(res.Causes)),
	}
	for _, c := range res.Causes {
		tab.AddRow(nba.Names[c.ID], fmt.Sprintf("1/%d", int(1/c.Responsibility+0.5)), len(c.Contingency))
	}
	tab.Render(cfg.Out)
	return nil
}

// pickNBANonAnswer scans mid-tier players (career average points below the
// query profile) for a non-answer with bounded refinement pool.
func pickNBANonAnswer(nba *dataset.NBA, q geom.Point, alpha float64, cfg Config) (int, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 77))
	perm := rng.Perm(nba.Len())
	for _, id := range perm {
		o := nba.Objects[id]
		var avgPTS float64
		for _, s := range o.Samples {
			avgPTS += s.Loc[0]
		}
		avgPTS /= float64(len(o.Samples))
		// Mid-tier: a meaningful but non-elite career.
		if avgPTS < 500 || avgPTS > 2400 {
			continue
		}
		candIDs := causality.FilterCandidates(nba.Uncertain, q, o)
		if len(candIDs) < 5 || len(candIDs) > cfg.MaxCandidates {
			continue
		}
		e := prob.NewEvaluator(o, q, objectsByID(nba.Uncertain, candIDs))
		if prob.GEq(e.Pr(), alpha) {
			continue
		}
		pool := 0
		for j := 0; j < e.N(); j++ {
			if !e.AlwaysDominates(j) {
				pool++
			}
		}
		if pool > cfg.MaxPool {
			continue
		}
		return id, nil
	}
	return 0, fmt.Errorf("experiments: no suitable NBA non-answer found")
}

// Table4 reproduces the CarDB case study (Section 5.2): the causes for a
// car an ≈ (7510, 10180) not being in the reverse skyline of a query
// profile q = (11580, 49000). Every cause dominates q w.r.t. an — i.e., is
// closer to an than q on both price and mileage — which is how the paper
// argues the causes are meaningful.
func Table4(cfg Config) error {
	cfg.fillDefaults()
	db := dataset.GenerateCarDB(cfg.Seed)
	w, err := buildCRWorkloadFromPoints(cfg, db.Points, cfg.MaxCandidates)
	if err != nil {
		return err
	}
	q := geom.Point{11580, 49000}
	target := geom.Point{7510, 10180}
	anIdx := nearestPoint(db.Points, target)

	res, err := causality.CR(w.ix, q, anIdx)
	if err != nil {
		// The nearest car to the paper's an may be a reverse skyline
		// point of this synthetic instance; fall back to a car with the
		// same character (cheap, low mileage, dominated).
		for _, i := range w.nonAnswers {
			if res, err = causality.CR(w.ix, q, i); err == nil {
				anIdx = i
				break
			}
		}
		if err != nil {
			return err
		}
	}
	an := db.Points[anIdx]
	tab := stats.Table{
		Title:  fmt.Sprintf("Table 4: causes for non-reverse-skyline car an=(%.0f, %.0f) w.r.t. q=(%.0f, %.0f)", an[0], an[1], q[0], q[1]),
		Header: []string{"cause(price)", "cause(mileage)", "responsibility"},
		Caption: fmt.Sprintf("%d causes, each dominating q w.r.t. an (|price−an| and |mileage−an| both smaller than q's).",
			len(res.Causes)),
	}
	show := res.Causes
	if len(show) > 15 {
		show = show[:15]
		tab.Caption += fmt.Sprintf(" Showing first 15 of %d.", len(res.Causes))
	}
	for _, c := range show {
		p := db.Points[c.ID]
		tab.AddRow(fmt.Sprintf("%.0f", p[0]), fmt.Sprintf("%.0f", p[1]),
			fmt.Sprintf("1/%d", int(1/c.Responsibility+0.5)))
	}
	tab.Render(cfg.Out)
	return nil
}

func nearestPoint(pts []geom.Point, target geom.Point) int {
	best, bestD := 0, -1.0
	for i, p := range pts {
		d := p.Dist(target)
		if bestD < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
