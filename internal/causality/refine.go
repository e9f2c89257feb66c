package causality

import (
	"context"
	"sort"

	"github.com/crsky/crsky/internal/ctxutil"
	"github.com/crsky/crsky/internal/obs"
	"github.com/crsky/crsky/internal/prob"
)

// refiner is the shared refinement engine behind CP and its pdf-model
// variant: given an incremental probability evaluator over the candidate
// causes, it classifies counterfactual causes (Lemma 5), forced
// contingency members (Lemma 4 / Γ1), and finds each candidate's minimum
// contingency set (FMCS, Algorithm 2) with Lemma 6 bound propagation.
//
// The key structural fact exploited for pruning is monotonicity:
// Pr(an | P−X) is non-decreasing in X (removing an object can only remove
// dominance mass), so once a partial removal set already satisfies
// Pr >= α, every superset violates contingency condition (i) and the
// whole enumeration branch dies.
//
// On top of the cardinality-ascending enumeration the refiner runs a true
// branch-and-bound search:
//
//   - an admissible bound prunes subtrees inside the enumeration: each
//     candidate's removal can raise Pr(an | ·) by at most its dominance
//     mass Σ_i w_i·d(j,i) in any context, so a branch whose `need` best
//     remaining removals cannot lift Pr(an | · −{cc}) to α has no
//     satisfying leaf (Options.NoAdmissible ablates it);
//   - pools and the candidate processing order are sorted by descending
//     dominance mass, so satisfying sets are met early and Lemma-6 bounds
//     propagate before, not after, the expensive searches
//     (Options.NoMassOrder ablates it);
//   - a minimum repair R* of an, computed first, gives every cause a
//     contingency set of at least |R*| − 1 objects, so every search starts
//     at that cardinality instead of proving the smaller ones empty
//     (repairFloor; Options.NoRepairSeed ablates it).
//
// All three are pure search-space reductions: they never change which
// cause IDs are reported or their responsibilities (minimum contingency
// sizes are unique even though the witnessing sets are not).
//
// The per-candidate searches run in order on the calling goroutine: each
// candidate's Lemma-6 bounds feed the candidates after it, so the search
// and its SubsetsExamined count are deterministic. Parallelism lives one
// level up: callers explain several non-answers concurrently (crskyd, one
// request per worker-pool slot).
type refiner struct {
	e     *prob.Evaluator
	ids   []int // candidate object IDs, parallel to evaluator indexes
	alpha float64

	// ctx cancels the search; poll amortizes the check to one ctx.Err()
	// read per ctxutil.DefaultStride charged work units. The poll sits
	// inside chargeWork, so it never perturbs the search order or the
	// budget counters of an uncanceled run.
	ctx  context.Context
	poll *ctxutil.Poll

	forced         []bool // Lemma 4: in every minimum contingency set
	counterfactual []bool // Lemma 5: in no minimum contingency set

	// gains[j] is the admissible removal gain of candidate j (its total
	// dominance mass against an): an upper bound on how much removing j
	// can raise Pr(an | ·) in any context.
	gains []float64

	// floor is the smallest contingency size any cause can have, from the
	// minimum-repair seed (repairFloor); every fmcs starts there.
	floor int

	opts Options

	// bestSet holds each candidate's Lemma-6 incumbent, a contingency set
	// (evaluator indexes) recorded by propagateLemma6; nil while unknown.
	bestSet [][]int

	// subsetsExamined counts contingency-set verifications, the seed's
	// exact-phase leaves included (Result.SubsetsExamined).
	subsetsExamined int64
	// workUnits counts every enumeration node — leaves AND branch points
	// killed by a prune. The MaxSubsets budget draws from this counter:
	// pruning turns would-be leaf verifications into internal-node
	// evaluations, and a budget that only counted leaves would never trip
	// on a search that prunes everything while still churning through an
	// exponential frontier.
	workUnits int64

	// Scratch reused across fmcs calls. Deep enumeration calls fmcs once
	// per candidate; without reuse every call reallocates the forced/pool
	// partitions and the chosen stack.
	scratchForced []int
	scratchPool   []int
	scratchChosen []int
	scratchPrefix []float64
}

// admissibleSlack widens the admissible prune threshold beyond the Eps
// already inside prob.Less: the bound and the leaf probabilities travel
// different float paths (direct gain sums vs the incremental product), so
// the prune keeps a full comparison-tolerance of margin to stay sound.
const admissibleSlack = 1e-9

func newRefiner(ctx context.Context, e *prob.Evaluator, ids []int, alpha float64, opts Options) *refiner {
	n := e.N()
	gains := make([]float64, n)
	for j := range gains {
		gains[j] = e.RemovalGain(j)
	}
	return &refiner{
		e:              e,
		ids:            ids,
		alpha:          alpha,
		ctx:            ctx,
		poll:           ctxutil.NewPoll(ctx, ctxutil.DefaultStride),
		forced:         make([]bool, n),
		counterfactual: make([]bool, n),
		gains:          gains,
		opts:           opts,
		bestSet:        make([][]int, n),
	}
}

// wrapCanceled converts a context error escaping the refinement into the
// typed CanceledError carrying the partial subset counter; every other
// error (ErrSubsetBudget in particular) passes through unchanged.
func (r *refiner) wrapCanceled(err error) error {
	return canceled(err, r.subsetsExamined)
}

// classify fills the forced and counterfactual marks (Lemmas 4 and 5);
// either classification can be ablated away without affecting correctness,
// only the search-space size.
func (r *refiner) classify() {
	for j := 0; j < r.e.N(); j++ {
		if !r.opts.NoLemma4 && r.e.AlwaysDominates(j) {
			r.forced[j] = true
		}
		if !r.opts.NoLemma5 && prob.GEq(r.e.PrWithout(j), r.alpha) {
			r.counterfactual[j] = true
		}
	}
}

// tightenGains is the per-sample remaining-zero-coverage refinement of the
// admissible removal gains: a counterfactual candidate is never removed
// during any contingency search (Lemma 5 keeps it out of every pool), so a
// sample it dominates with probability 1 keeps a zero Eq. (2) factor in
// every context the search can reach — no sequence of pool removals ever
// reclaims that sample's mass. Subtracting the
// permanently dead mass from each candidate's gain tightens the
// branch-and-bound budget while staying admissible. The mass ordering uses
// the same tightened gains, so the prefix-sum bound stays an exact range
// sum over the sorted pool, and every ablation variant sees the same
// enumeration order (the monotonicity gates compare subset counts across
// variants).
func (r *refiner) tightenGains() {
	blocked := r.e.BlockedSampleMask(r.counterfactual)
	if blocked == nil {
		return
	}
	for j := range r.gains {
		r.gains[j] = r.e.RemovalGainMasked(j, blocked)
	}
}

// run executes the refinement and returns the causes.
func (r *refiner) run() ([]Cause, error) {
	r.classify()
	r.tightenGains()

	// Degenerate conflict: a candidate that is both forced and
	// counterfactual blocks every other cause — while it is present,
	// Pr(an) is exactly 0, so no other removal can flip an into an
	// answer; and removing it alone already flips an. It is the unique
	// actual cause.
	for j := range r.forced {
		if r.forced[j] && r.counterfactual[j] {
			return []Cause{{ID: r.ids[j], Responsibility: 1, Counterfactual: true}}, nil
		}
	}

	var causes []Cause
	for j := range r.counterfactual {
		if r.counterfactual[j] {
			causes = append(causes, Cause{ID: r.ids[j], Responsibility: 1, Counterfactual: true})
		}
	}

	tr := obs.FromContext(r.ctx)
	endSearch := tr.StartSpan("explain.search")
	if !r.opts.NoRepairSeed {
		endSeed := tr.StartSpan("explain.seed")
		floor, err := r.repairFloor()
		endSeed()
		if err != nil {
			endSearch()
			return nil, r.wrapCanceled(err)
		}
		r.floor = floor
	}
	perCandidate, err := r.searchAll()
	endSearch()
	if err != nil {
		return nil, r.wrapCanceled(err)
	}
	for cc, gamma := range perCandidate {
		if gamma == nil {
			continue // counterfactual (handled above) or not a cause
		}
		contingency := make([]int, len(gamma))
		for i, idx := range gamma {
			contingency[i] = r.ids[idx]
		}
		sort.Ints(contingency)
		causes = append(causes, Cause{
			ID:             r.ids[cc],
			Responsibility: 1 / float64(1+len(contingency)),
			Contingency:    contingency,
			Counterfactual: len(contingency) == 0,
		})
	}
	sortCauses(causes)
	return causes, nil
}

// searchOrder lists the candidates to search, skipping counterfactual ones.
// Unless ablated, candidates are visited in descending dominance-mass order:
// heavy candidates tend to share contingency structure, so their freshly
// found minimum sets seed Lemma-6 bounds for the candidates still queued.
func (r *refiner) searchOrder() []int {
	order := make([]int, 0, r.e.N())
	for cc := 0; cc < r.e.N(); cc++ {
		if !r.counterfactual[cc] {
			order = append(order, cc)
		}
	}
	if !r.opts.NoMassOrder {
		sortPoolByGain(order, func(j int) float64 { return r.gains[j] })
	}
	return order
}

// searchAll runs fmcs for every non-counterfactual candidate in search
// order and returns the found minimum contingency set per candidate (nil
// when not a cause or counterfactual).
func (r *refiner) searchAll() ([][]int, error) {
	out := make([][]int, r.e.N())
	for _, cc := range r.searchOrder() {
		gamma, ok, err := r.fmcs(cc)
		if err != nil {
			return nil, err
		}
		if ok {
			out[cc] = gamma
			if out[cc] == nil {
				out[cc] = []int{} // counterfactual found by search
			}
		}
	}
	return out, nil
}

// partition splits the candidates other than cc into the forced kernel and
// the searchable pool, excluding counterfactual candidates (Lemma 5). The
// returned slices alias the refiner's scratch space.
func (r *refiner) partition(cc int) (forcedSet, pool []int) {
	forcedSet, pool = r.scratchForced[:0], r.scratchPool[:0]
	for j := 0; j < r.e.N(); j++ {
		if j == cc {
			continue
		}
		switch {
		case r.forced[j]:
			forcedSet = append(forcedSet, j)
		case r.counterfactual[j]:
			// Lemma 5: never in a minimum contingency set.
		default:
			pool = append(pool, j)
		}
	}
	r.scratchForced, r.scratchPool = forcedSet, pool
	return forcedSet, pool
}

// chargeWork draws n evaluation units from the MaxSubsets budget,
// returning ErrSubsetBudget once it is exhausted. It is also the single
// cancellation point of the refinement: the amortized context poll fires
// here, so every budget-charging site — leaves, pruned branch points, the
// repair seed — observes a cancellation within one stride.
func (r *refiner) chargeWork(n int64) error {
	if err := r.poll.Charge(n); err != nil {
		return err
	}
	r.workUnits += n
	if r.opts.MaxSubsets > 0 && r.workUnits > r.opts.MaxSubsets {
		return ErrSubsetBudget
	}
	return nil
}

// repairFloor returns the contingency-size floor that a minimum repair R*
// gives every cause. For a cause c with contingency set Γ, Γ ∪ {c} is
// itself a repair (the causes–repairs connection of Salimi and Bertossi).
// Lemma 5 keeps every counterfactual candidate out of Γ, and c is searched
// only when it is not counterfactual, so R* is taken over the other
// candidates and still gives |Γ| >= |R*| − 1. The repair search runs on a
// clone of the evaluator, so the refinement's incremental state is
// untouched; it pays for every probability evaluation and enumeration node
// with chargeWork, and its exact-phase leaves count as examined subsets.
// The floor is 0 — no bound — when those candidates cannot reach α, or
// when their pool is too large for the repair to be proven minimum.
func (r *refiner) repairFloor() (int, error) {
	meter := repairMeter{
		greedy: r.chargeWork,
		node:   r.chargeWork,
		leaf:   func() { r.subsetsExamined++ },
	}
	kernel, chosen, exact, err := minRepair(r.e.Clone(), r.alpha, r.counterfactual, meter, true, nil)
	if err != nil || !exact {
		return 0, err
	}
	return len(kernel) + len(chosen) - 1, nil
}

// fmcs finds a minimum contingency set for candidate cc (Algorithm 2),
// returning the set as evaluator indexes. ok is false when cc is not an
// actual cause.
func (r *refiner) fmcs(cc int) (gamma []int, ok bool, err error) {
	forcedSet, pool := r.partition(cc)
	maxSize := len(forcedSet) + len(pool)

	// Dominance-mass order: heavy removals first, so satisfying subsets
	// appear early in each cardinality's enumeration — and so the
	// admissible bound's best-remaining prefix is exactly a range sum.
	if !r.opts.NoMassOrder {
		sortPoolByGain(pool, func(j int) float64 { return r.gains[j] })
	}

	// Feasibility precheck: condition (ii) is monotone in Γ, so if even
	// the maximal Γ (everything but cc removed) cannot make an an
	// answer, cc is not an actual cause.
	for _, j := range forcedSet {
		r.e.Remove(j)
	}
	for _, j := range pool {
		r.e.Remove(j)
	}
	feasible := prob.GEq(r.e.PrWithout(cc), r.alpha)
	for _, j := range pool {
		r.e.Add(j)
	}
	if !feasible {
		for _, j := range forcedSet {
			r.e.Add(j)
		}
		return nil, false, nil
	}

	// Admissible-bound prefix sums over the pool's gains: with the pool
	// mass-sorted, the best `need` removals available from position
	// `start` onward are exactly pool[start:start+need].
	var prefix []float64
	if !r.opts.NoAdmissible {
		prefix = gainPrefix(pool, func(j int) float64 { return r.gains[j] }, r.scratchPrefix)
		r.scratchPrefix = prefix
	}

	// The shared budgeted enumeration with the FMCS leaf and prunes
	// plugged in. Two prunes guard each branch point: the monotone prune
	// (condition (i) already violated — dead for every superset) and the
	// admissible prune (even the best `need` remaining removals cannot
	// lift Pr(an | · −{cc}) to α — no satisfying leaf below).
	search := &subsetSearch{
		e:      r.e,
		pool:   pool,
		charge: r.chargeWork,
		leaf: func() (bool, error) {
			r.subsetsExamined++
			pr, prWo := r.e.PrPair(cc)
			return prob.Less(pr, r.alpha) && prob.GEq(prWo, r.alpha), nil
		},
		prune: func(start, need int) bool {
			if prefix == nil {
				// Without the admissible bound only Pr is needed, so skip
				// PrPair's PrWithout half — this is exactly the
				// pre-branch-and-bound node cost.
				return !r.opts.NoPrune && prob.GEq(r.e.Pr(), r.alpha)
			}
			pr, prWo := r.e.PrPair(cc)
			if !r.opts.NoPrune && prob.GEq(pr, r.alpha) {
				return true
			}
			budget := prefix[start+need] - prefix[start]
			if r.opts.NoMassOrder {
				// Unsorted pool: fall back to the whole remaining mass,
				// still admissible, just looser.
				budget = prefix[len(pool)] - prefix[start]
			}
			return prob.Less(prWo+budget+admissibleSlack, r.alpha)
		},
	}

	// Search cardinalities from the repair floor strictly below the best
	// known upper bound — a Lemma-6 set, else maxSize+1. No contingency set
	// is smaller than the floor, so starting there skips only empty
	// cardinalities and finds the same first set. Nothing records a set for
	// cc while cc is searched, so the bound is read once.
	upper := maxSize + 1
	if set := r.bestSet[cc]; set != nil && len(set) < upper {
		upper = len(set)
	}
	found := -1
	chosen := r.scratchChosen[:0]
	for m := max(len(forcedSet), r.floor); m < upper; m++ {
		need := m - len(forcedSet)
		if need > len(pool) {
			break
		}
		hit, e := search.run(0, need, &chosen)
		if e != nil {
			for _, j := range forcedSet {
				r.e.Add(j)
			}
			return nil, false, e
		}
		if hit {
			found = m
			break
		}
	}
	for _, j := range forcedSet {
		r.e.Add(j)
	}
	r.scratchChosen = chosen[:0]

	switch {
	case found >= 0:
		gamma = make([]int, 0, len(forcedSet)+len(chosen))
		gamma = append(append(gamma, forcedSet...), chosen...)
		if !r.opts.NoLemma6 {
			r.propagateLemma6(cc, gamma)
		}
		return gamma, true, nil
	case r.bestSet[cc] != nil:
		// Nothing smaller exists, so the recorded Lemma-6 incumbent is
		// minimal — which is all Lemma 6 itself needs: a certified
		// incumbent propagates same-size bounds to its members exactly like
		// a freshly enumerated set. Guarded by the same ablation flag so
		// NoLemma6 benchmark cells stay comparable.
		gamma = r.bestSet[cc]
		if !r.opts.NoLemma6 {
			r.propagateLemma6(cc, gamma)
		}
		return gamma, true, nil
	default:
		return nil, false, nil
	}
}

// propagateLemma6 records contingency sets for the members of a freshly
// found minimum set: if Γ is minimal for cc and o ∈ Γ satisfies
// Pr(an | P − (Γ−{o}) − {cc}) < α, then (Γ−{o}) ∪ {cc} is a contingency
// set for o of the same size (Lemma 6), sparing o's own search below that
// bound.
func (r *refiner) propagateLemma6(cc int, gamma []int) {
	size := len(gamma)
	for _, o := range gamma {
		if r.counterfactual[o] {
			continue
		}
		if set := r.bestSet[o]; set != nil && len(set) <= size {
			continue
		}
		// Build P − (Γ−{o}) − {cc} on the evaluator.
		for _, j := range gamma {
			if j != o {
				r.e.Remove(j)
			}
		}
		pr := r.e.PrWithout(cc)
		for _, j := range gamma {
			if j != o {
				r.e.Add(j)
			}
		}
		if prob.Less(pr, r.alpha) {
			set := make([]int, 0, size)
			for _, j := range gamma {
				if j != o {
					set = append(set, j)
				}
			}
			r.bestSet[o] = append(set, cc)
		}
	}
}
