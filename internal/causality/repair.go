package causality

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"github.com/crsky/crsky/internal/ctxutil"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/obs"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/uncertain"
)

// Repair is a minimal intervention turning a non-answer into an answer:
// deleting the Removed objects raises Pr(an) to NewPr >= α. It answers the
// actionable follow-up to a causality explanation — "what is the smallest
// set of competitors I need to beat?" — and generalizes counterfactual
// causes (a counterfactual cause is exactly a singleton repair).
type Repair struct {
	// Removed lists the object IDs whose deletion makes an an answer,
	// sorted ascending.
	Removed []int
	// NewPr is Pr(an | P − Removed).
	NewPr float64
	// Exact reports whether Removed is provably minimum; false means the
	// greedy fallback produced it (still valid, possibly larger).
	Exact bool
	// FilterNodeAccesses is the simulated I/O of the candidate-retrieval
	// R-tree traversal for this repair.
	FilterNodeAccesses int64
}

// MinimalRepair finds a smallest removal set R ⊆ P with
// Pr(an | P−R) >= alpha. Only candidate causes can matter (Lemma 1), every
// always-dominating object must be in R (its presence pins Pr(an) to 0),
// and Pr is monotone in R. The search runs the same branch-and-bound scheme
// as the FMCS refiner: a greedy marginal-gain construction first yields an
// incumbent upper bound, then (for pools up to greedyThreshold) the exact
// phase enumerates only cardinalities BELOW the incumbent, with subtrees
// pruned whenever even the `need` largest remaining removal gains cannot
// lift Pr to α. If that bounded search comes up empty the incumbent is
// provably minimum and reported Exact=true; larger pools or an exceeded
// Options.MaxSubsets budget keep the greedy set with Exact=false.
func MinimalRepair(ds *dataset.Uncertain, q geom.Point, anID int, alpha float64, opts Options) (*Repair, error) {
	return MinimalRepairCtx(context.Background(), ds, q, anID, alpha, opts)
}

// MinimalRepairCtx is MinimalRepair under a context, with the same
// cancellation contract as CPCtx: the greedy construction and the exact
// phase poll ctx with an amortized stride and return a typed
// *ctxutil.CanceledError on cancellation. Unlike a MaxSubsets exhaustion —
// which degrades to the greedy answer — a cancellation is an error: the
// caller asked the computation to stop, so no partial repair is reported.
func MinimalRepairCtx(ctx context.Context, ds *dataset.Uncertain, q geom.Point, anID int, alpha float64, opts Options) (*Repair, error) {
	if anID < 0 || anID >= ds.Len() || ds.Objects[anID] == nil {
		return nil, fmt.Errorf("%w: %d", ErrBadObject, anID)
	}
	if err := checkQuery(q, ds.Dims(), alpha); err != nil {
		return nil, err
	}
	if err := precheck(ctx); err != nil {
		return nil, err
	}
	an := ds.Objects[anID]
	tr := obs.FromContext(ctx)
	endFilter := tr.StartSpan("repair.filter")
	candIDs, filterIO := FilterCandidatesCounted(ds, q, an)
	endFilter()
	cands := make([]*uncertain.Object, len(candIDs))
	for i, id := range candIDs {
		cands[i] = ds.Objects[id]
	}
	rep, err := repairCore(ctx, prob.NewEvaluator(an, q, cands), candIDs, alpha, opts)
	if err != nil {
		return nil, err
	}
	rep.FilterNodeAccesses = filterIO
	return rep, nil
}

// repairCore is the model-agnostic half of the repair search, shared by the
// sample and pdf entry points: everything after candidate filtering and
// evaluator construction. The evaluator abstracts the probability model
// (sample weights or quadrature pseudo-samples), so the kernel extraction,
// the greedy incumbent, and the exact branch-and-bound phase below are
// written once against it.
func repairCore(ctx context.Context, e *prob.Evaluator, candIDs []int, alpha float64, opts Options) (*Repair, error) {
	poll := ctxutil.NewPoll(ctx, ctxutil.DefaultStride)
	tr := obs.FromContext(ctx)
	if prob.GEq(e.Pr(), alpha) {
		return nil, fmt.Errorf("%w: Pr=%.6g, α=%.6g", ErrNotNonAnswer, e.Pr(), alpha)
	}

	// Forced kernel: while an always-dominating candidate is present,
	// Pr(an) = 0 < α, so it belongs to every repair.
	var kernel, pool []int
	for j := 0; j < e.N(); j++ {
		if e.AlwaysDominates(j) {
			kernel = append(kernel, j)
			e.Remove(j)
		} else {
			pool = append(pool, j)
		}
	}
	// The kernel alone may already suffice.
	if prob.GEq(e.Pr(), alpha) {
		return finishRepair(e, candIDs, kernel, nil, true), nil
	}

	// Greedy incumbent: repeatedly remove the pool candidate with the
	// largest marginal probability gain. Always a valid repair (removing
	// the whole pool yields Pr = 1) and usually at or near the minimum.
	endGreedy := tr.StartSpan("repair.greedy")
	greedy, err := greedyRepair(e, pool, alpha, poll)
	endGreedy()
	if err != nil {
		return nil, canceled(err, 0)
	}
	if greedy == nil {
		// Cannot happen: removing every candidate yields Pr = 1.
		return nil, fmt.Errorf("causality: repair construction failed")
	}
	for _, j := range greedy {
		e.Add(j) // back to the kernel-only state for the exact phase
	}

	const greedyThreshold = 24
	if len(pool) <= greedyThreshold {
		endSearch := tr.StartSpan("repair.search")
		chosen, found, ok, err := exactRepairBelow(e, pool, alpha, opts.MaxSubsets, len(greedy), poll)
		endSearch()
		if err != nil {
			return nil, canceled(err, 0)
		}
		if ok && found {
			for _, j := range chosen {
				e.Remove(j)
			}
			return finishRepair(e, candIDs, kernel, chosen, true), nil
		}
		if ok {
			// The bounded search exhausted every smaller cardinality:
			// the greedy incumbent is a provably minimum repair.
			for _, j := range greedy {
				e.Remove(j)
			}
			return finishRepair(e, candIDs, kernel, greedy, true), nil
		}
		// Budget ran out mid-proof; fall through to the inexact answer.
	}

	for _, j := range greedy {
		e.Remove(j)
	}
	return finishRepair(e, candIDs, kernel, greedy, false), nil
}

// greedyRepair removes pool candidates in descending marginal-gain order
// until the threshold is reached, returning the chosen evaluator indexes
// (which remain removed). nil means the pool was exhausted below α. On
// cancellation the evaluator is restored to the kernel-only state and the
// context error is returned.
func greedyRepair(e *prob.Evaluator, pool []int, alpha float64, poll *ctxutil.Poll) ([]int, error) {
	var chosen []int
	remaining := append([]int{}, pool...)
	for !prob.GEq(e.Pr(), alpha) {
		if len(remaining) == 0 {
			for _, j := range chosen {
				e.Add(j)
			}
			return nil, nil
		}
		bestIdx, bestGain := -1, -1.0
		base := e.Pr()
		for i, j := range remaining {
			if err := poll.Check(); err != nil {
				for _, k := range chosen {
					e.Add(k)
				}
				return nil, err
			}
			if gain := e.PrWithout(j) - base; gain > bestGain {
				bestIdx, bestGain = i, gain
			}
		}
		j := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		e.Remove(j)
		chosen = append(chosen, j)
	}
	return chosen, nil
}

// errRepairBudget distinguishes MaxSubsets exhaustion (degrade to the
// greedy incumbent) from a context cancellation (a real error) inside the
// shared subset search.
var errRepairBudget = errors.New("causality: repair enumeration budget exhausted")

// exactRepairBelow enumerates pool subsets of size < upper in ascending
// cardinality on an evaluator whose kernel is already removed, returning
// the first (hence minimum) subset reaching the threshold. It runs the
// shared sorted-pool/prefix-sum/budgeted search (subsetSearch) with the
// repair leaf plugged in: the pool is visited in descending removal-gain
// order and a subtree dies when even the `need` largest remaining gains
// cannot lift the current probability to α — the same admissible bound the
// FMCS refiner uses, so the phase only pays for cardinalities the incumbent
// has not already ruled out. found=false with ok=true means no smaller
// repair exists; ok=false means the budget ran out; a non-nil err is a
// context cancellation. The evaluator is restored in every case.
func exactRepairBelow(e *prob.Evaluator, pool []int, alpha float64, budget int64, upper int, poll *ctxutil.Poll) (chosen []int, found, ok bool, err error) {
	if upper <= 1 {
		return nil, false, true, nil // the incumbent is a singleton: nothing below it
	}
	gains := make(map[int]float64, len(pool))
	for _, j := range pool {
		gains[j] = e.RemovalGain(j)
	}
	gain := func(j int) float64 { return gains[j] }
	ordered := append([]int{}, pool...)
	sortPoolByGain(ordered, gain)
	prefix := gainPrefix(ordered, gain, nil)

	var examined int64
	search := &subsetSearch{
		e:    e,
		pool: ordered,
		// Charge every node, pruned branch points included, so the budget
		// trips even when the admissible bound kills everything. The
		// context poll rides on the same charging point.
		charge: func(n int64) error {
			if err := poll.Charge(n); err != nil {
				// Type the error here, where the partial node count lives,
				// so the CanceledError reports the abandoned work.
				return &ctxutil.CanceledError{Err: err, SubsetsExamined: examined}
			}
			if examined += n; budget > 0 && examined > budget {
				return errRepairBudget
			}
			return nil
		},
		leaf: func() (bool, error) { return prob.GEq(e.Pr(), alpha), nil },
		prune: func(start, need int) bool {
			mass := prefix[start+need] - prefix[start]
			return prob.Less(e.Pr()+mass+admissibleSlack, alpha)
		},
	}
	for m := 1; m < upper; m++ {
		if m > len(ordered) {
			break
		}
		hit, err := search.run(0, m, &chosen)
		if errors.Is(err, errRepairBudget) {
			return nil, false, false, nil
		}
		if err != nil {
			return nil, false, false, err
		}
		if hit {
			return chosen, true, true, nil
		}
	}
	return nil, false, true, nil
}

func finishRepair(e *prob.Evaluator, candIDs, kernel, chosen []int, exact bool) *Repair {
	removed := make([]int, 0, len(kernel)+len(chosen))
	for _, j := range kernel {
		removed = append(removed, candIDs[j])
	}
	for _, j := range chosen {
		removed = append(removed, candIDs[j])
	}
	sort.Ints(removed)
	return &Repair{Removed: removed, NewPr: e.Pr(), Exact: exact}
}
