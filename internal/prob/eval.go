package prob

import (
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/uncertain"
)

// Evaluator computes Pr(an | P − X) for varying removal sets X ⊆ Cc in
// (amortized) O(l_an) per mutation, where l_an is the number of samples of
// the non-answer. It exploits two paper facts:
//
//   - only candidate causes influence Pr(an) (Lemma 1/3), so the evaluator
//     is built over the candidate set only, and
//   - Eq. (2) factorizes per sample of an, so removing or re-adding one
//     candidate only rescales the per-sample products.
//
// Construction precomputes the dominance-probability matrix
// d(j, i) = Pr{c_j ≺_{an_i} q}, stored row-major in a single flat slice —
// one cache-friendly allocation instead of one slice header per candidate,
// which matters on the query hot path where evaluators are built in bulk.
// Factors equal to zero (candidates that never dominate w.r.t. a sample)
// contribute nothing; factors equal to one are tracked with a per-sample
// zero counter so the product never divides by zero. If any factor is
// dangerously small (numerically close to zero without being zero), the
// evaluator transparently falls back to exact from-scratch recomputation on
// every query.
type Evaluator struct {
	weights []float64 // an's sample probabilities (or quadrature weights)
	d       []float64 // row-major: d[j*cols+i] is candidate j w.r.t. sample i
	cols    int       // samples per row (== len(weights))
	rows    int       // number of candidates
	active  []bool
	nActive int

	prod    []float64 // per-sample product over active j of (1−d[j][i]) with d<1
	zeroCnt []int     // per-sample count of active j with d[j][i] == 1
	scratch bool      // fall back to exact recomputation
}

// minIncrementalFactor guards the incremental divide: any smaller surviving
// factor forces scratch mode. Factors below Eps are snapped to zero, so the
// guard covers the numerically risky band (Eps, 1e-6).
const minIncrementalFactor = 1e-6

// NewEvaluator builds an evaluator for the non-answer an against the
// candidate objects cands (Eq. 3 dominance probabilities against q).
func NewEvaluator(an *uncertain.Object, q geom.Point, cands []*uncertain.Object) *Evaluator {
	cols := len(an.Samples)
	weights := make([]float64, cols)
	for i, s := range an.Samples {
		weights[i] = s.P
	}
	d := make([]float64, len(cands)*cols)
	for j, c := range cands {
		row := d[j*cols : (j+1)*cols]
		for i, s := range an.Samples {
			row[i] = DomProb(c, s.Loc, q)
		}
	}
	return newEvaluatorFlat(weights, d, len(cands))
}

// NewEvaluatorRaw builds an evaluator from explicit sample weights and a
// dominance-probability matrix d[j][i]. The pdf-model pipeline uses this
// with quadrature nodes as pseudo-samples.
func NewEvaluatorRaw(weights []float64, d [][]float64) *Evaluator {
	cols := len(weights)
	flat := make([]float64, len(d)*cols)
	for j, row := range d {
		copy(flat[j*cols:(j+1)*cols], row)
	}
	return newEvaluatorFlat(weights, flat, len(d))
}

func newEvaluatorFlat(weights, d []float64, rows int) *Evaluator {
	e := &Evaluator{
		weights: weights,
		d:       d,
		cols:    len(weights),
		rows:    rows,
		active:  make([]bool, rows),
		nActive: rows,
		prod:    make([]float64, len(weights)),
		zeroCnt: make([]int, len(weights)),
	}
	for j := 0; j < rows; j++ {
		e.active[j] = true
	}
	for k := range d {
		d[k] = snap(d[k])
		f := 1 - d[k]
		if f > 0 && f < minIncrementalFactor {
			e.scratch = true
		}
	}
	e.rebuild()
	return e
}

// row returns candidate j's dominance-probability row.
func (e *Evaluator) row(j int) []float64 {
	return e.d[j*e.cols : (j+1)*e.cols]
}

func (e *Evaluator) rebuild() {
	for i := range e.weights {
		e.prod[i] = 1
		e.zeroCnt[i] = 0
	}
	for j, on := range e.active {
		if !on {
			continue
		}
		for i, dv := range e.row(j) {
			if dv == 1 {
				e.zeroCnt[i]++
			} else {
				e.prod[i] *= 1 - dv
			}
		}
	}
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

// N returns the number of candidates the evaluator was built over.
func (e *Evaluator) N() int { return e.rows }

// NumActive returns how many candidates are currently active.
func (e *Evaluator) NumActive() int { return e.nActive }

// Active reports whether candidate j is active (present in P − X).
func (e *Evaluator) Active(j int) bool { return e.active[j] }

// Remove deactivates candidate j (adds it to the removal set X).
func (e *Evaluator) Remove(j int) {
	if !e.active[j] {
		return
	}
	e.active[j] = false
	e.nActive--
	if e.scratch {
		return
	}
	for i, dv := range e.row(j) {
		if dv == 1 {
			e.zeroCnt[i]--
		} else if dv > 0 {
			e.prod[i] /= 1 - dv
		}
	}
}

// Add reactivates candidate j (removes it from the removal set X).
func (e *Evaluator) Add(j int) {
	if e.active[j] {
		return
	}
	e.active[j] = true
	e.nActive++
	if e.scratch {
		return
	}
	for i, dv := range e.row(j) {
		if dv == 1 {
			e.zeroCnt[i]++
		} else if dv > 0 {
			e.prod[i] *= 1 - dv
		}
	}
}

// Pr returns Pr(an | P − X) for the current removal set X.
func (e *Evaluator) Pr() float64 {
	if e.scratch {
		return e.prScratch(-1)
	}
	var pr float64
	for i, w := range e.weights {
		if e.zeroCnt[i] > 0 {
			continue
		}
		pr += w * e.prod[i]
	}
	return snap(pr)
}

// PrWithout returns Pr(an | P − X − {c_j}) without mutating the evaluator.
// Passing an already-removed j returns Pr().
func (e *Evaluator) PrWithout(j int) float64 {
	if !e.active[j] {
		return e.Pr()
	}
	if e.scratch {
		return e.prScratch(j)
	}
	var pr float64
	row := e.row(j)
	for i, w := range e.weights {
		dv := row[i]
		zc := e.zeroCnt[i]
		if dv == 1 {
			zc--
		}
		if zc > 0 {
			continue
		}
		p := e.prod[i]
		if dv != 1 && dv > 0 {
			p /= 1 - dv
		}
		pr += w * p
	}
	return snap(pr)
}

// PrPair returns Pr() and PrWithout(j) in one pass over the samples — the
// contingency-condition test evaluates both at every search leaf, and the
// fused loop reads prod/zeroCnt once instead of twice. The per-sample
// arithmetic is exactly that of Pr and PrWithout, in the same accumulation
// order, so both results are bit-identical to the separate calls.
func (e *Evaluator) PrPair(j int) (pr, without float64) {
	if e.scratch || !e.active[j] {
		return e.Pr(), e.PrWithout(j)
	}
	row := e.row(j)
	for i, w := range e.weights {
		dv := row[i]
		zc := e.zeroCnt[i]
		if zc == 0 {
			pr += w * e.prod[i]
		}
		if dv == 1 {
			zc--
		}
		if zc > 0 {
			continue
		}
		p := e.prod[i]
		if dv != 1 && dv > 0 {
			p /= 1 - dv
		}
		without += w * p
	}
	return snap(pr), snap(without)
}

// RemovalGain returns an admissible upper bound on how much removing
// candidate j can raise Pr(an | ·) in ANY removal context: the gain of
// removing j on top of a removal set Y is
//
//	Σ_i w_i · d(j,i) · Π_{k ∉ Y∪{j}} (1 − d(k,i))  ≤  Σ_i w_i · d(j,i),
//
// and by telescoping, the joint gain of removing a set is at most the sum of
// the members' bounds. The branch-and-bound refiner prunes subtrees whose
// remaining best-gain budget cannot lift the probability to the threshold.
func (e *Evaluator) RemovalGain(j int) float64 {
	var g float64
	row := e.row(j)
	for i, w := range e.weights {
		g += w * row[i]
	}
	return g
}

// BlockedSampleMask returns, per sample, whether some candidate marked
// permanent dominates it with probability exactly 1. Such a sample's
// Eq. (2) factor is pinned to zero in every removal context that keeps the
// permanent candidates active, so the sample can contribute neither
// probability mass nor removal gain there. Returns nil when no sample is
// blocked (the common case — callers then keep the unmasked gains).
func (e *Evaluator) BlockedSampleMask(permanent []bool) []bool {
	var blocked []bool
	for j, p := range permanent {
		if !p {
			continue
		}
		for i, dv := range e.row(j) {
			if dv == 1 {
				if blocked == nil {
					blocked = make([]bool, e.cols)
				}
				blocked[i] = true
			}
		}
	}
	return blocked
}

// RemovalGainMasked is RemovalGain restricted to unblocked samples: the
// admissible bound over the removal contexts where the blocking candidates
// stay active. A nil mask means no sample is blocked.
func (e *Evaluator) RemovalGainMasked(j int, blocked []bool) float64 {
	if blocked == nil {
		return e.RemovalGain(j)
	}
	var g float64
	row := e.row(j)
	for i, w := range e.weights {
		if !blocked[i] {
			g += w * row[i]
		}
	}
	return g
}

// prScratch recomputes the probability exactly, optionally skipping one
// extra candidate.
func (e *Evaluator) prScratch(skip int) float64 {
	var pr float64
	for i, w := range e.weights {
		term := w
		for j, on := range e.active {
			if !on || j == skip {
				continue
			}
			term *= 1 - e.d[j*e.cols+i]
			if term == 0 {
				break
			}
		}
		pr += term
	}
	return snap(pr)
}

// AlwaysDominates reports whether candidate j dominates q w.r.t. every
// sample of an with probability 1 — the Lemma 4 (Γ1) membership test: while
// j is present, Pr(an) is exactly 0.
func (e *Evaluator) AlwaysDominates(j int) bool {
	for _, dv := range e.row(j) {
		if dv != 1 {
			return false
		}
	}
	return true
}

// Reset reactivates every candidate.
func (e *Evaluator) Reset() {
	for j := range e.active {
		e.active[j] = true
	}
	e.nActive = len(e.active)
	if !e.scratch {
		e.rebuild()
	}
}
