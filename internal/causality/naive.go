package causality

import (
	"context"
	"fmt"
	"sort"

	"github.com/crsky/crsky/internal/ctxutil"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/uncertain"
)

// NaiveI is the improved baseline of Section 5.3: it shares CP's candidate
// filter (hence identical I/O) but refines by enumerating the subsets of
// the whole candidate set in ascending cardinality for every candidate,
// without Lemma 4/5/6 or any pruning. The first subset satisfying the
// contingency conditions is the minimum by construction.
func NaiveI(ds *dataset.Uncertain, q geom.Point, anID int, alpha float64, opts Options) (*Result, error) {
	return NaiveICtx(context.Background(), ds, q, anID, alpha, opts)
}

// NaiveICtx is NaiveI under a context: the exhaustive enumeration polls ctx
// with the same amortized stride as the refiner, so even the baseline is
// cancellable when used as an online oracle.
func NaiveICtx(ctx context.Context, ds *dataset.Uncertain, q geom.Point, anID int, alpha float64, opts Options) (*Result, error) {
	if anID < 0 || anID >= ds.Len() || ds.Objects[anID] == nil {
		return nil, fmt.Errorf("%w: %d", ErrBadObject, anID)
	}
	if err := checkQuery(q, ds.Dims(), alpha); err != nil {
		return nil, err
	}
	if err := precheck(ctx); err != nil {
		return nil, err
	}
	poll := ctxutil.NewPoll(ctx, ctxutil.DefaultStride)
	an := ds.Objects[anID]
	candIDs, filterIO := FilterCandidatesCounted(ds, q, an)
	if opts.MaxCandidates > 0 && len(candIDs) > opts.MaxCandidates {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooManyCandidates, len(candIDs), opts.MaxCandidates)
	}
	cands := make([]*uncertain.Object, len(candIDs))
	for i, id := range candIDs {
		cands[i] = ds.Objects[id]
	}
	e := prob.NewEvaluator(an, q, cands)
	pr := e.Pr()
	if prob.GEq(pr, alpha) {
		return nil, fmt.Errorf("%w: Pr=%.6g, α=%.6g", ErrNotNonAnswer, pr, alpha)
	}

	res := &Result{NonAnswer: anID, Pr: pr, Candidates: len(candIDs), FilterNodeAccesses: filterIO}
	n := len(candIDs)
	pool := make([]int, 0, n-1)
	for cc := 0; cc < n; cc++ {
		pool = pool[:0]
		for j := 0; j < n; j++ {
			if j != cc {
				pool = append(pool, j)
			}
		}
		gamma, ok, err := naiveFMCS(e, cc, pool, alpha, &res.SubsetsExamined, opts.MaxSubsets, poll)
		if err != nil {
			return nil, canceled(err, res.SubsetsExamined)
		}
		if !ok {
			continue
		}
		contingency := make([]int, len(gamma))
		for i, idx := range gamma {
			contingency[i] = candIDs[idx]
		}
		sort.Ints(contingency)
		res.Causes = append(res.Causes, Cause{
			ID:             candIDs[cc],
			Responsibility: 1 / float64(1+len(contingency)),
			Contingency:    contingency,
			Counterfactual: len(contingency) == 0,
		})
	}
	sortCauses(res.Causes)
	return res, nil
}

// naiveFMCS enumerates every subset of pool in ascending cardinality and
// returns the first contingency set for cc.
func naiveFMCS(e *prob.Evaluator, cc int, pool []int, alpha float64, counter *int64, budget int64, poll *ctxutil.Poll) ([]int, bool, error) {
	var chosen []int
	var rec func(start, need int) (bool, error)
	rec = func(start, need int) (bool, error) {
		if err := poll.Check(); err != nil {
			return false, err
		}
		if need == 0 {
			*counter++
			if budget > 0 && *counter > budget {
				return false, ErrSubsetBudget
			}
			if prob.Less(e.Pr(), alpha) && prob.GEq(e.PrWithout(cc), alpha) {
				return true, nil
			}
			return false, nil
		}
		for i := start; i+need <= len(pool); i++ {
			j := pool[i]
			e.Remove(j)
			chosen = append(chosen, j)
			hit, err := rec(i+1, need-1)
			if hit || err != nil {
				e.Add(j)
				return hit, err
			}
			chosen = chosen[:len(chosen)-1]
			e.Add(j)
		}
		return false, nil
	}
	for m := 0; m <= len(pool); m++ {
		hit, err := rec(0, m)
		if err != nil {
			return nil, false, err
		}
		if hit {
			out := make([]int, len(chosen))
			copy(out, chosen)
			return out, true, nil
		}
	}
	return nil, false, nil
}
