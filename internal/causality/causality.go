// Package causality implements the paper's contribution: computing the
// causality and responsibility for non-answers to probabilistic reverse
// skyline queries (algorithm CP with FMCS, Section 3), its continuous-pdf
// variant (Section 3.2), the certain-data algorithm CR (Section 4,
// Lemma 7), the Naive-I/Naive-II baselines used in the evaluation, and a
// brute-force Definition-1 oracle for testing.
package causality

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"github.com/crsky/crsky/internal/ctxutil"
)

// Cause is one actual cause for a non-answer, with its responsibility and a
// minimum contingency set witnessing it (Definitions 1–2).
type Cause struct {
	// ID is the causing object's ID.
	ID int
	// Responsibility is 1/(1+|Γ|) for a minimum contingency set Γ.
	Responsibility float64
	// Contingency is one minimum contingency set (object IDs, sorted).
	// Empty for counterfactual causes.
	Contingency []int
	// Counterfactual marks causes whose contingency set is empty.
	Counterfactual bool
}

// Result is the output of a causality computation plus diagnostics used by
// the experiment harness.
type Result struct {
	// NonAnswer is the ID of the explained non-answer object.
	NonAnswer int
	// Pr is the probability of the non-answer being a reverse skyline
	// point over the full dataset (always < α).
	Pr float64
	// Causes lists every actual cause, sorted by descending responsibility
	// and ascending ID.
	Causes []Cause
	// Candidates is |Cc|, the candidate-cause count after filtering.
	Candidates int
	// SubsetsExamined counts contingency-set verifications performed
	// during refinement (the work the paper's lemmas save), including the
	// leaves of the minimum-repair seed's exact phase.
	SubsetsExamined int64
	// FilterNodeAccesses is the simulated I/O of the candidate-retrieval
	// R-tree traversal (the Lemma-2 filter step) for this explanation.
	FilterNodeAccesses int64
	// QuadNodes is the per-dimension quadrature resolution the pdf-model
	// computation actually ran at (0 for the discrete models). Recording
	// the resolved value lets an independent verifier re-integrate at the
	// same discretization the search used.
	QuadNodes int
}

// Options tunes the refinement stage. One explanation's refinement runs
// serially on the caller's goroutine; callers that want parallelism
// explain several non-answers concurrently.
type Options struct {
	// MaxCandidates aborts with ErrTooManyCandidates when the filter
	// returns more candidates than this (0 = unlimited). The refinement
	// is exponential in the candidate count in the worst case, exactly as
	// Theorem 1 states; the cap makes misuse fail fast instead of hanging.
	MaxCandidates int
	// MaxSubsets aborts with ErrSubsetBudget after this many refinement
	// evaluation units — contingency-set verifications, branch points a
	// prune killed, and the minimum-repair seed's evaluations and
	// enumeration nodes (0 = unlimited). Charging pruned branch points and
	// the seed keeps the budget a real latency bound under the
	// branch-and-bound search: prunes convert leaf verifications into
	// internal-node work, and the seed runs before any enumeration.
	MaxSubsets int64
	// QuadNodes is the per-dimension quadrature resolution for the
	// pdf-model algorithms (0 = dimension-adapted default).
	QuadNodes int

	// Ablation switches (benchmarking only — results stay correct, the
	// refinement just loses the corresponding optimization):
	// NoLemma4 stops forcing always-dominating objects into every
	// contingency set, NoLemma5 stops excluding counterfactual causes
	// from the search pools, NoLemma6 stops propagating found minimum
	// sets to their members, and NoPrune disables the monotonicity prune.
	NoLemma4 bool
	NoLemma5 bool
	NoLemma6 bool
	NoPrune  bool

	// Branch-and-bound ablations (same contract — results stay correct):
	// NoAdmissible disables the removal-gain bound that prunes enumeration
	// subtrees, and NoMassOrder keeps pools and the candidate processing
	// sequence in index order instead of descending dominance mass.
	NoAdmissible bool
	NoMassOrder  bool

	// NoRepairSeed skips the minimum-repair seed that starts every FMCS
	// search at |R*| − 1 (benchmarking only, like the switches above).
	NoRepairSeed bool
}

// Errors reported by the causality algorithms.
var (
	// ErrNotNonAnswer reports that the object to explain is actually an
	// answer to the query, so it has no non-answer causality.
	ErrNotNonAnswer = errors.New("causality: object is an answer, not a non-answer")
	// ErrTooManyCandidates reports a candidate set beyond Options.MaxCandidates.
	ErrTooManyCandidates = errors.New("causality: candidate set exceeds MaxCandidates")
	// ErrSubsetBudget reports that refinement exceeded Options.MaxSubsets.
	ErrSubsetBudget = errors.New("causality: subset verification budget exhausted")
	// ErrBadObject reports an unknown object reference.
	ErrBadObject = errors.New("causality: object index out of range")
)

// canceled and precheck are thin aliases over the shared ctxutil helpers,
// binding this package's partial-statistic (the subset counter) into the
// typed cancellation error.
func canceled(err error, subsets int64) error {
	return ctxutil.WrapCanceled(err, subsets, 0)
}

func precheck(ctx context.Context) error { return ctxutil.Precheck(ctx) }

func sortCauses(causes []Cause) {
	sort.Slice(causes, func(i, j int) bool {
		if causes[i].Responsibility != causes[j].Responsibility {
			return causes[i].Responsibility > causes[j].Responsibility
		}
		return causes[i].ID < causes[j].ID
	})
}

func (c Cause) String() string {
	if c.Counterfactual {
		return fmt.Sprintf("cause %d (counterfactual, r=1)", c.ID)
	}
	return fmt.Sprintf("cause %d (r=%.4g, |Γ|=%d)", c.ID, c.Responsibility, len(c.Contingency))
}
