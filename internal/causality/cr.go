package causality

import (
	"context"
	"fmt"
	"sort"

	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/obs"
	"github.com/crsky/crsky/internal/skyline"
)

// CR computes the causality and responsibility for a non-answer to a
// (certain) reverse skyline query — Section 4. A single window query over
// the dominance rectangle of an collects every object dominating q w.r.t.
// an; by Lemma 7 each of them is an actual cause whose minimum contingency
// set is all the other candidates, so every responsibility is 1/|Cc|
// (Eq. 4) and no verification is needed.
func CR(ix *skyline.Index, q geom.Point, anIdx int) (*Result, error) {
	candIDs, filterIO, err := dominatorSet(ix, q, anIdx)
	if err != nil {
		return nil, err
	}
	res := &Result{NonAnswer: anIdx, Pr: 0, Candidates: len(candIDs), FilterNodeAccesses: filterIO}
	res.Causes = alphaOneCauses(candIDs)
	return res, nil
}

// RepairCR is the certain-data minimal repair in closed form. Every
// candidate in Cc dominates q w.r.t. an outright, so an stays a non-answer
// until all of them are gone: the unique minimum repair is Cc itself —
// Lemma 7's most responsible cause plus its contingency set — found by
// CR's single window query, with no search.
func RepairCR(ctx context.Context, ix *skyline.Index, q geom.Point, anIdx int) (*Repair, error) {
	if err := precheck(ctx); err != nil {
		return nil, err
	}
	endFilter := obs.FromContext(ctx).StartSpan("repair.filter")
	candIDs, filterIO, err := dominatorSet(ix, q, anIdx)
	endFilter()
	if err != nil {
		return nil, err
	}
	return &Repair{Removed: candIDs, NewPr: 1, Exact: true, FilterNodeAccesses: filterIO}, nil
}

// VerifyCR re-checks a CR explanation against Definition 1 in closed form.
// It recomputes Cc with a linear dominance scan, independent of the R-tree
// whose window query produced the explanation. On certain data
// Pr(an | P−Γ−{extra}) is 1 exactly when Γ ∪ {extra} covers Cc and 0
// otherwise, so the shared audit costs O(n + |Cc|²) instead of two full
// Eq.-2 evaluations per cause.
func VerifyCR(ix *skyline.Index, q geom.Point, res *Result) error {
	if res == nil {
		return fmt.Errorf("causality: nil result")
	}
	if err := checkQuery(q, ix.Dims(), 1); err != nil {
		return err
	}
	n := ix.Len()
	var cc []int
	if res.NonAnswer >= 0 && res.NonAnswer < n {
		an := ix.Point(res.NonAnswer)
		if an == nil {
			return fmt.Errorf("%w: %d", ErrBadObject, res.NonAnswer)
		}
		for id := 0; id < n; id++ {
			if p := ix.Point(id); p != nil && id != res.NonAnswer && geom.DynDominates(p, q, an) {
				cc = append(cc, id)
			}
		}
	}
	return verifyCauses(n, 1, res, func(removed map[int]bool, extra int) float64 {
		for _, c := range cc {
			if !removed[c] && c != extra {
				return 0
			}
		}
		return 1
	})
}

// dominatorSet validates a certain-data request and returns Cc: the sorted
// IDs of every point dominating q w.r.t. an, from one window query, with
// that query's node accesses. An empty Cc means an is a reverse skyline
// point (ErrNotNonAnswer).
func dominatorSet(ix *skyline.Index, q geom.Point, anIdx int) ([]int, int64, error) {
	if anIdx < 0 || anIdx >= ix.Len() || ix.Deleted(anIdx) {
		return nil, 0, fmt.Errorf("%w: %d", ErrBadObject, anIdx)
	}
	if err := checkQuery(q, ix.Dims(), 1); err != nil {
		return nil, 0, err
	}
	candIDs, filterIO := ix.Dominators(anIdx, q)
	if len(candIDs) == 0 {
		return nil, 0, fmt.Errorf("%w: object %d is a reverse skyline point", ErrNotNonAnswer, anIdx)
	}
	sort.Ints(candIDs)
	return candIDs, filterIO, nil
}

// NaiveII is the certain-data baseline of Section 5.4: it collects the
// candidates with the same window query as CR (identical I/O) but then
// verifies each candidate by enumerating subsets of the candidate set in
// ascending cardinality, testing reverse-skyline membership against the
// in-memory candidate list — ignoring Lemma 7 entirely.
func NaiveII(ix *skyline.Index, q geom.Point, anIdx int, opts Options) (*Result, error) {
	if anIdx < 0 || anIdx >= ix.Len() {
		return nil, fmt.Errorf("%w: %d", ErrBadObject, anIdx)
	}
	if err := checkQuery(q, ix.Dims(), 1); err != nil {
		return nil, err
	}
	candIDs, filterIO := ix.Dominators(anIdx, q)
	if len(candIDs) == 0 {
		return nil, fmt.Errorf("%w: object %d is a reverse skyline point", ErrNotNonAnswer, anIdx)
	}
	if opts.MaxCandidates > 0 && len(candIDs) > opts.MaxCandidates {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooManyCandidates, len(candIDs), opts.MaxCandidates)
	}
	sort.Ints(candIDs)
	res := &Result{NonAnswer: anIdx, Pr: 0, Candidates: len(candIDs), FilterNodeAccesses: filterIO}

	n := len(candIDs)
	removed := make([]bool, n)
	// anStillNonAnswer reports whether a dominator survives outside the
	// removal set; extraSkip additionally hides the candidate under test.
	anStillNonAnswer := func(extraSkip int) bool {
		for j := 0; j < n; j++ {
			if !removed[j] && j != extraSkip {
				return true
			}
		}
		return false
	}

	var chosen []int
	var rec func(start, need, cc int) (bool, error)
	rec = func(start, need, cc int) (bool, error) {
		if need == 0 {
			res.SubsetsExamined++
			if opts.MaxSubsets > 0 && res.SubsetsExamined > opts.MaxSubsets {
				return false, ErrSubsetBudget
			}
			// Γ is a contingency set iff an remains a non-answer on
			// P−Γ but becomes an answer on P−Γ−{cc}.
			return anStillNonAnswer(-1) && !anStillNonAnswer(cc), nil
		}
		for i := start; i < n; i++ {
			if i == cc || removed[i] {
				continue
			}
			removed[i] = true
			chosen = append(chosen, i)
			hit, err := rec(i+1, need-1, cc)
			if hit || err != nil {
				removed[i] = false
				return hit, err
			}
			chosen = chosen[:len(chosen)-1]
			removed[i] = false
		}
		return false, nil
	}

	for cc := 0; cc < n; cc++ {
		found := false
		for m := 0; m < n && !found; m++ {
			chosen = chosen[:0]
			hit, err := rec(0, m, cc)
			if err != nil {
				return nil, err
			}
			if hit {
				contingency := make([]int, len(chosen))
				for i, idx := range chosen {
					contingency[i] = candIDs[idx]
				}
				sort.Ints(contingency)
				res.Causes = append(res.Causes, Cause{
					ID:             candIDs[cc],
					Responsibility: 1 / float64(1+len(contingency)),
					Contingency:    contingency,
					Counterfactual: len(contingency) == 0,
				})
				found = true
			}
		}
	}
	sortCauses(res.Causes)
	return res, nil
}
