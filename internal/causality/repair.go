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
// and Pr is monotone in R. The search is a branch and bound: a greedy
// marginal-gain construction first yields an incumbent upper bound, then
// (for pools up to exactRepairLimit) the exact phase enumerates only
// cardinalities BELOW the incumbent, with subtrees pruned whenever even the
// `need` largest remaining removal gains cannot lift Pr to α (the FMCS
// refiner's admissible bound). If that bounded search comes up empty the
// incumbent is provably minimum and reported Exact=true; larger pools or an
// exceeded Options.MaxSubsets budget keep the greedy set with Exact=false.
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
// evaluator construction. It meters minRepair the public way: the greedy
// phase only polls ctx, and an exact phase that exhausts Options.MaxSubsets
// degrades to the greedy incumbent (Exact=false).
func repairCore(ctx context.Context, e *prob.Evaluator, candIDs []int, alpha float64, opts Options) (*Repair, error) {
	if prob.GEq(e.Pr(), alpha) {
		return nil, fmt.Errorf("%w: Pr=%.6g, α=%.6g", ErrNotNonAnswer, e.Pr(), alpha)
	}
	poll := ctxutil.NewPoll(ctx, ctxutil.DefaultStride)
	var examined int64
	meter := repairMeter{
		greedy: poll.Charge,
		node: func(n int64) error {
			if err := poll.Charge(n); err != nil {
				// Type the error here, where the partial node count lives,
				// so the CanceledError reports the abandoned work.
				return &ctxutil.CanceledError{Err: err, SubsetsExamined: examined}
			}
			if examined += n; opts.MaxSubsets > 0 && examined > opts.MaxSubsets {
				return errRepairBudget
			}
			return nil
		},
	}
	kernel, chosen, exact, err := minRepair(e, alpha, nil, meter, false, obs.FromContext(ctx))
	if err != nil {
		return nil, canceled(err, 0)
	}
	return finishRepair(e, candIDs, kernel, chosen, exact), nil
}

// repairMeter is how a repair search pays for its work. MinimalRepair and
// the explanation's repair seed (refiner.repairFloor) run the same phases
// and differ only here.
type repairMeter struct {
	// greedy is charged once per probability evaluation of the greedy
	// phase.
	greedy func(n int64) error
	// node is charged once per exact-phase enumeration node, pruned branch
	// points included. errRepairBudget from it ends the exact phase
	// without a proof; any other error ends the search.
	node func(n int64) error
	// leaf, when set, is called at every exact-phase leaf.
	leaf func()
}

// exactRepairLimit is the largest pool the exact phase enumerates; a larger
// pool keeps its greedy incumbent, which is then not proven minimum.
const exactRepairLimit = 24

// minRepair searches e for a smallest removal set R with Pr(an | P−R) >= α,
// on an evaluator with nothing removed and Pr < α. Only candidates can
// matter (Lemma 1), every always-dominating candidate is in every repair
// (its presence pins Pr(an) to 0), and Pr is monotone in R. The forced
// kernel goes first, then the greedy incumbent, then — for pools up to
// exactRepairLimit — the exact phase below the incumbent. Candidates
// marked in skip (nil: none) are never removed. It returns the kernel and
// the chosen pool members as evaluator indexes, left removed on e, and
// whether their union is a proven minimum. It returns (nil, nil, false,
// nil) when the unskipped candidates cannot reach α, and with exactOnly
// also before the greedy phase when the pool is over the limit. tr
// (nil-safe) receives the repair.greedy and repair.search spans.
func minRepair(e *prob.Evaluator, alpha float64, skip []bool, meter repairMeter, exactOnly bool, tr *obs.Trace) (kernel, chosen []int, exact bool, err error) {
	var pool []int
	for j := 0; j < e.N(); j++ {
		switch {
		case skip != nil && skip[j]:
			// Neither kernel nor pool: never removed.
		case e.AlwaysDominates(j):
			kernel = append(kernel, j)
			e.Remove(j)
		default:
			pool = append(pool, j)
		}
	}
	// The kernel alone may already suffice.
	if prob.GEq(e.Pr(), alpha) {
		return kernel, nil, true, nil
	}
	if exactOnly && len(pool) > exactRepairLimit {
		return nil, nil, false, nil
	}

	// Greedy incumbent: repeatedly remove the pool candidate with the
	// largest marginal probability gain. Always a valid repair (removing
	// the whole pool yields Pr = 1) and usually at or near the minimum.
	endGreedy := tr.StartSpan("repair.greedy")
	greedy, err := greedyRepair(e, pool, alpha, meter.greedy)
	endGreedy()
	if err != nil {
		return nil, nil, false, err
	}
	if greedy == nil {
		// Only a skip can leave the pool below α: removing every candidate
		// yields Pr = 1.
		return nil, nil, false, nil
	}
	if len(pool) > exactRepairLimit {
		return kernel, greedy, false, nil
	}
	for _, j := range greedy {
		e.Add(j) // back to the kernel-only state for the exact phase
	}

	endSearch := tr.StartSpan("repair.search")
	chosen, found, ok, err := exactRepairBelow(e, pool, alpha, len(greedy), meter)
	endSearch()
	if err != nil {
		return nil, nil, false, err
	}
	if !found {
		// Either the bounded search exhausted every smaller cardinality
		// (ok: the greedy incumbent is a proven minimum) or the budget ran
		// out mid-proof (the incumbent stands, unproven).
		chosen = greedy
	}
	for _, j := range chosen {
		e.Remove(j)
	}
	return kernel, chosen, ok, nil
}

// greedyRepair removes pool candidates in descending marginal-gain order
// until the threshold is reached, returning the chosen evaluator indexes
// (which remain removed). Every probability evaluation is charged one unit.
// nil means the pool was exhausted below α. On a charge error the evaluator
// is restored to the kernel-only state and the error is returned.
func greedyRepair(e *prob.Evaluator, pool []int, alpha float64, charge func(n int64) error) ([]int, error) {
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
			if err := charge(1); err != nil {
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
// has not already ruled out. Every node is charged to meter.node.
// found=false with ok=true means no smaller repair exists; ok=false means
// the node charge reported errRepairBudget; a non-nil err is any other
// charge error. The evaluator is restored in every case.
func exactRepairBelow(e *prob.Evaluator, pool []int, alpha float64, upper int, meter repairMeter) (chosen []int, found, ok bool, err error) {
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

	search := &subsetSearch{
		e:    e,
		pool: ordered,
		// Every node is charged, pruned branch points included, so the
		// budget trips even when the admissible bound kills everything.
		charge: meter.node,
		leaf: func() (bool, error) {
			if meter.leaf != nil {
				meter.leaf()
			}
			return prob.GEq(e.Pr(), alpha), nil
		},
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
