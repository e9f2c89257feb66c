package conformance

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/uncertain"
)

// explainVariant is one refinement configuration cross-checked against the
// Definition-1 brute oracle.
type explainVariant struct {
	name string
	opts causality.Options
}

// explainVariants enumerates every branch-and-bound ablation combination
// (admissible bound × mass ordering × repair seed) crossed with serial and
// parallel refinement, plus the legacy lemma ablations stacked on both the
// full branch-and-bound search and the fully stripped enumeration.
func explainVariants() []explainVariant {
	var out []explainVariant
	for _, parallel := range []int{1, 4} {
		for mask := 0; mask < 8; mask++ {
			o := causality.Options{
				Parallel:     parallel,
				NoAdmissible: mask&1 != 0,
				NoMassOrder:  mask&2 != 0,
				NoRepairSeed: mask&4 != 0,
			}
			out = append(out, explainVariant{
				name: fmt.Sprintf("par%d-ad%t-mo%t-rs%t", parallel,
					!o.NoAdmissible, !o.NoMassOrder, !o.NoRepairSeed),
				opts: o,
			})
		}
		out = append(out,
			explainVariant{
				name: fmt.Sprintf("par%d-nolemmas-bb", parallel),
				opts: causality.Options{Parallel: parallel,
					NoLemma4: true, NoLemma5: true, NoLemma6: true, NoPrune: true},
			},
			explainVariant{
				name: fmt.Sprintf("par%d-nolemmas-plain", parallel),
				opts: causality.Options{Parallel: parallel,
					NoLemma4: true, NoLemma5: true, NoLemma6: true, NoPrune: true,
					NoAdmissible: true, NoMassOrder: true, NoRepairSeed: true},
			},
		)
	}
	return out
}

// explainWorkload is a tiny uncertain dataset: the brute oracle enumerates
// all subsets of all objects, so cardinalities stay single-digit.
func explainWorkload(t *testing.T, seed int64) (*dataset.Uncertain, geom.Point, float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 5 + rng.Intn(4)
	dims := 1 + rng.Intn(2)
	objs := make([]*uncertain.Object, n)
	for i := 0; i < n; i++ {
		ns := 1 + rng.Intn(3)
		center := make(geom.Point, dims)
		for j := range center {
			center[j] = rng.Float64() * 60
		}
		locs := make([]geom.Point, ns)
		for s := range locs {
			p := make(geom.Point, dims)
			for j := range p {
				p[j] = center[j] + (rng.Float64()-0.5)*25
			}
			locs[s] = p
		}
		objs[i] = uncertain.NewUniform(i, locs)
	}
	ds, err := dataset.NewUncertain(objs)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	q := make(geom.Point, dims)
	for j := range q {
		q[j] = rng.Float64() * 60
	}
	alpha := [4]float64{0.3, 0.5, 0.65, 0.8}[rng.Intn(4)]
	return ds, q, alpha
}

// checkContingencyWitness re-validates one reported cause straight from
// Definition 1 by rebuilding the per-world probabilities without the
// contingency set (condition (i)) and additionally without the cause
// (condition (ii)).
func checkContingencyWitness(t *testing.T, ds *dataset.Uncertain, q geom.Point,
	anID int, alpha float64, c causality.Cause, context string) {
	t.Helper()
	drop := make(map[int]bool, len(c.Contingency)+1)
	for _, id := range c.Contingency {
		drop[id] = true
	}
	active := func(extra int) []*uncertain.Object {
		var out []*uncertain.Object
		for _, o := range ds.Objects {
			if o.ID != anID && !drop[o.ID] && o.ID != extra {
				out = append(out, o)
			}
		}
		return out
	}
	an := ds.Objects[anID]
	if pr := prob.PrReverseSkyline(an, q, active(-1)); !prob.Less(pr, alpha) {
		t.Fatalf("%s: cause %d: removing Γ=%v alone lifted Pr to %v >= α=%v (condition (i) violated)",
			context, c.ID, c.Contingency, pr, alpha)
	}
	if pr := prob.PrReverseSkyline(an, q, active(c.ID)); !prob.GEq(pr, alpha) {
		t.Fatalf("%s: cause %d: removing Γ=%v and the cause left Pr at %v < α=%v (condition (ii) violated)",
			context, c.ID, c.Contingency, pr, alpha)
	}
}

// TestExplainConformance cross-checks the branch-and-bound refiner — every
// ablation combination, serial and parallel — against the Definition-1
// brute oracle on randomized cases: identical cause IDs in identical order,
// exact responsibilities, equal contingency-set sizes, and every witnessed
// contingency set must actually satisfy the contingency conditions (the
// sets themselves may legitimately differ between search orders, the sizes
// may not).
func TestExplainConformance(t *testing.T) {
	variants := explainVariants()
	informative := 0
	forEachCaseSeed(t, 31_000, 24, func(t *testing.T, seed int64) {
		ds, q, alpha := explainWorkload(t, seed)
		checked := 0
		defer func() { informative += checked }()
		for anID := 0; anID < ds.Len() && checked < 2; anID++ {
			if prob.GEq(prob.PrReverseSkyline(ds.Objects[anID], q, ds.Objects), alpha) {
				continue
			}
			want := causality.BruteCausesUncertain(ds.Objects, q, anID, alpha)
			if len(want) == 0 {
				continue
			}
			checked++
			for _, v := range variants {
				got, err := causality.CP(ds, q, anID, alpha, v.opts)
				if err != nil {
					t.Fatalf("seed=%d an=%d variant=%s: %v", seed, anID, v.name, err)
				}
				ctx := fmt.Sprintf("seed=%d an=%d α=%g variant=%s", seed, anID, alpha, v.name)
				if len(got.Causes) != len(want) {
					t.Fatalf("%s: %d causes, oracle has %d\n got: %v\nwant: %v",
						ctx, len(got.Causes), len(want), got.Causes, want)
				}
				for i := range want {
					g, w := got.Causes[i], want[i]
					if g.ID != w.ID {
						t.Fatalf("%s: cause %d is object %d, oracle says %d", ctx, i, g.ID, w.ID)
					}
					if math.Abs(g.Responsibility-w.Responsibility) > 1e-12 {
						t.Fatalf("%s: cause %d responsibility %v, oracle says %v",
							ctx, g.ID, g.Responsibility, w.Responsibility)
					}
					if len(g.Contingency) != len(w.Contingency) {
						t.Fatalf("%s: cause %d |Γ|=%d, oracle says %d (Γ=%v vs %v)",
							ctx, g.ID, len(g.Contingency), len(w.Contingency),
							g.Contingency, w.Contingency)
					}
					if g.Counterfactual != w.Counterfactual {
						t.Fatalf("%s: cause %d counterfactual=%t, oracle says %t",
							ctx, g.ID, g.Counterfactual, w.Counterfactual)
					}
					checkContingencyWitness(t, ds, q, anID, alpha, g, ctx)
				}
			}
		}
	})
	if os.Getenv(ReplaySeedEnv) == "" && informative < 10 {
		t.Fatalf("only %d informative non-answers across all case seeds — workload drifted", informative)
	}
}

// TestExplainVariantAgreementLarger runs the variant cross on instances a
// bit beyond the brute oracle's reach, asserting all configurations agree
// with each other (transitively anchored to the oracle by the smaller
// cases) and that every witnessed contingency set checks out.
func TestExplainVariantAgreementLarger(t *testing.T) {
	variants := explainVariants()
	forEachCaseSeed(t, 32_000, 10, func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		cfg := dataset.LUrU(14+rng.Intn(6), 2, 0, 2000+2000*rng.Float64(), rng.Int63())
		cfg.Samples = 1 + rng.Intn(3)
		cfg.Domain = 1000
		ds, err := dataset.GenerateUncertain(cfg)
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		q := geom.Point{1000 * rng.Float64(), 1000 * rng.Float64()}
		alpha := 0.4 + 0.5*rng.Float64()
		checked := 0
		for anID := 0; anID < ds.Len() && checked < 2; anID++ {
			if prob.GEq(prob.PrReverseSkyline(ds.Objects[anID], q, ds.Objects), alpha) {
				continue
			}
			base, err := causality.CP(ds, q, anID, alpha, causality.Options{})
			if err != nil || len(base.Causes) == 0 {
				continue
			}
			checked++
			for ci, c := range base.Causes {
				if ci >= 3 {
					break
				}
				checkContingencyWitness(t, ds, q, anID, alpha, c,
					fmt.Sprintf("seed=%d an=%d base", seed, anID))
			}
			for _, v := range variants {
				got, err := causality.CP(ds, q, anID, alpha, v.opts)
				if err != nil {
					t.Fatalf("seed=%d an=%d variant=%s: %v", seed, anID, v.name, err)
				}
				ctx := fmt.Sprintf("seed=%d an=%d variant=%s", seed, anID, v.name)
				if len(got.Causes) != len(base.Causes) {
					t.Fatalf("%s: %d causes, base has %d", ctx, len(got.Causes), len(base.Causes))
				}
				for i := range base.Causes {
					g, w := got.Causes[i], base.Causes[i]
					if g.ID != w.ID || math.Abs(g.Responsibility-w.Responsibility) > 1e-12 ||
						len(g.Contingency) != len(w.Contingency) {
						t.Fatalf("%s: cause %d diverges: %+v vs base %+v", ctx, i, g, w)
					}
				}
			}
		}
	})
}
