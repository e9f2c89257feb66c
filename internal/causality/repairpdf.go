package causality

import (
	"context"
	"fmt"

	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/obs"
)

// MinimalRepairPDF is MinimalRepair for the continuous model: a smallest
// removal set R with Pr(an | P−R) >= alpha, every probability an integral
// over an's uncertainty region (Gauss–Legendre cubature at
// Options.QuadNodes nodes per dimension, 0 = dimension-adapted default).
// The candidate filter is CPPDF's — one dominance rectangle per
// sub-quadrant piece of an's region — and the search itself is the shared
// kernel/greedy/branch-and-bound scheme, running unchanged on the
// quadrature-backed evaluator.
func MinimalRepairPDF(s *PDFSet, q geom.Point, anID int, alpha float64, opts Options) (*Repair, error) {
	return MinimalRepairPDFCtx(context.Background(), s, q, anID, alpha, opts)
}

// MinimalRepairPDFCtx is MinimalRepairPDF under a context, with the same
// cancellation contract as MinimalRepairCtx.
func MinimalRepairPDFCtx(ctx context.Context, s *PDFSet, q geom.Point, anID int, alpha float64, opts Options) (*Repair, error) {
	if anID < 0 || anID >= s.Len() || s.Objects[anID] == nil {
		return nil, fmt.Errorf("%w: %d", ErrBadObject, anID)
	}
	if err := checkQuery(q, s.Dims(), alpha); err != nil {
		return nil, err
	}
	if err := precheck(ctx); err != nil {
		return nil, err
	}
	an := s.Objects[anID]

	tr := obs.FromContext(ctx)
	endFilter := tr.StartSpan("repair.filter")
	candIDs, filterIO := s.FilterCandidates(q, anID)
	endFilter()

	// Candidates with zero dominance mass can never be part of a minimum
	// repair, and a tight pool keeps the exact phase below its enumeration
	// threshold more often.
	e, candIDs, _ := s.evaluator(an, q, candIDs, opts.QuadNodes)
	rep, err := repairCore(ctx, e, candIDs, alpha, opts)
	if err != nil {
		return nil, err
	}
	rep.FilterNodeAccesses = filterIO
	return rep, nil
}
