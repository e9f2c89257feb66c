package prob

import (
	"math/rand"

	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/uncertain"
)

// PrReverseSkylineMC estimates Pr(u) by sampling possible worlds: in each
// iteration one sample per object materializes and the world is checked for
// a dominator of q w.r.t. u's instance. The estimator is unbiased with
// standard error <= 1/(2*sqrt(iters)); it exists for cross-validation and
// for workloads whose per-object sample counts make Eq. (2) evaluation
// undesirable. Objects identical to u (by pointer) are skipped.
func PrReverseSkylineMC(u *uncertain.Object, q geom.Point, others []*uncertain.Object,
	iters int, rng *rand.Rand) float64 {

	if iters <= 0 {
		iters = 10_000
	}
	hits := 0
	for it := 0; it < iters; it++ {
		anchor := drawSample(u, rng)
		member := true
		for _, o := range others {
			if o == u {
				continue
			}
			if geom.DynDominates(drawSample(o, rng), q, anchor) {
				member = false
				break
			}
		}
		if member {
			hits++
		}
	}
	return float64(hits) / float64(iters)
}

// PrReverseSkylineMCPDF is the continuous-model twin of PrReverseSkylineMC:
// each iteration draws one anchor from u's density and one location per
// candidate, and checks the materialized world for a dominator of q w.r.t.
// the anchor. Same unbiasedness and error bound as the sample-model
// estimator.
func PrReverseSkylineMCPDF(u *uncertain.PDFObject, q geom.Point, others []*uncertain.PDFObject,
	iters int, rng *rand.Rand) float64 {

	if iters <= 0 {
		iters = 10_000
	}
	hits := 0
	for it := 0; it < iters; it++ {
		anchor := u.SampleFrom(rng)
		member := true
		for _, o := range others {
			if o == u {
				continue
			}
			if geom.DynDominates(o.SampleFrom(rng), q, anchor) {
				member = false
				break
			}
		}
		if member {
			hits++
		}
	}
	return float64(hits) / float64(iters)
}

// drawSample draws one location according to the object's sample
// probabilities.
func drawSample(o *uncertain.Object, rng *rand.Rand) geom.Point {
	if len(o.Samples) == 1 {
		return o.Samples[0].Loc
	}
	v := rng.Float64()
	acc := 0.0
	for i := range o.Samples {
		acc += o.Samples[i].P
		if v < acc {
			return o.Samples[i].Loc
		}
	}
	return o.Samples[len(o.Samples)-1].Loc
}

// Clone returns an independent copy of the evaluator sharing the immutable
// dominance matrix but owning its activation state, so a side search (the
// refinement's minimum-repair seed) can mutate it without disturbing the
// original's incremental state.
func (e *Evaluator) Clone() *Evaluator {
	c := &Evaluator{
		weights: e.weights, // immutable after construction
		d:       e.d,       // immutable after construction
		cols:    e.cols,
		rows:    e.rows,
		active:  append([]bool{}, e.active...),
		nActive: e.nActive,
		prod:    append([]float64{}, e.prod...),
		zeroCnt: append([]int{}, e.zeroCnt...),
		scratch: e.scratch,
	}
	return c
}
