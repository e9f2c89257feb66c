package causality

import (
	"fmt"
	"sync"

	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/uncertain"
)

// VerifyExplanation independently re-checks a CP result against
// Definition 1: for every reported cause c it confirms that the recorded
// contingency set Γ witnesses causehood — Pr(an | P−Γ) < α while
// Pr(an | P−Γ−{c}) >= α — and that responsibility equals 1/(1+|Γ|). It
// does not re-prove minimality (that would repeat the search); it proves
// the explanation is sound. Useful as a trust layer on top of Explain and
// heavily used by the integration tests. Each probability is evaluated over
// the objects one linear pre-scan keeps (nearObjects), not all n.
func VerifyExplanation(ds *dataset.Uncertain, q geom.Point, alpha float64, res *Result) error {
	if res == nil {
		return fmt.Errorf("causality: nil result")
	}
	if res.NonAnswer >= 0 && res.NonAnswer < ds.Len() && ds.Objects[res.NonAnswer] == nil {
		return fmt.Errorf("%w: %d", ErrBadObject, res.NonAnswer)
	}
	near := sync.OnceValue(func() []*uncertain.Object {
		return nearObjects(ds.Objects, ds.Objects[res.NonAnswer], q)
	})
	return verifyCauses(ds.Len(), alpha, res, func(removed map[int]bool, extra int) float64 {
		return prWithRemoved(ds.Objects[res.NonAnswer], q, near(), removed, extra)
	})
}

// VerifyExplanationPDF is VerifyExplanation for the continuous model: the
// same Definition-1 checks with every probability an integral over an's
// uncertainty region instead of a sum over samples. quadNodes is the
// per-dimension Gauss–Legendre resolution (<= 0 selects the
// dimension-adapted default); pass Result.QuadNodes to re-integrate at the
// resolution the explanation was computed at, so the verifier and the
// search agree on the quadrature discretization.
func VerifyExplanationPDF(s *PDFSet, q geom.Point, alpha float64, quadNodes int, res *Result) error {
	if res == nil {
		return fmt.Errorf("causality: nil result")
	}
	if res.NonAnswer >= 0 && res.NonAnswer < s.Len() && s.Objects[res.NonAnswer] == nil {
		return fmt.Errorf("%w: %d", ErrBadObject, res.NonAnswer)
	}
	near := sync.OnceValue(func() []*uncertain.PDFObject {
		return nearObjectsPDF(s.Objects, s.Objects[res.NonAnswer], q)
	})
	return verifyCauses(s.Len(), alpha, res, func(removed map[int]bool, extra int) float64 {
		return prWithRemovedPDF(s.Objects[res.NonAnswer], q, near(), removed, extra, quadNodes)
	})
}

// nearObjects returns the live objects other than an whose MBR meets one of
// an's padded dominance windows (the candidate filter's windows), in slice
// order, by a linear scan that does not touch the R-tree. Any other object
// dominates q w.r.t. no sample of an, so its Eq.-2 factor is exactly 1 and
// leaving it out keeps every probability the verifier computes
// bit-identical.
func nearObjects(objs []*uncertain.Object, an *uncertain.Object, q geom.Point) []*uncertain.Object {
	wins := make([]geom.Rect, len(an.Samples))
	for i, s := range an.Samples {
		wins[i] = geom.DomRectOuter(s.Loc, q)
	}
	wins = dropContainedWindows(wins)
	var near []*uncertain.Object
	for _, o := range objs {
		if o != nil && o.ID != an.ID && meetsAny(o.MBR(), wins) {
			near = append(near, o)
		}
	}
	return near
}

// nearObjectsPDF is nearObjects for the continuous model: the objects whose
// region meets one of an's sub-quadrant filter rectangles. Any other object
// has zero dominance mass w.r.t. every point of an's region.
func nearObjectsPDF(objs []*uncertain.PDFObject, an *uncertain.PDFObject, q geom.Point) []*uncertain.PDFObject {
	wins := prob.CandidateRectsPDF(an, q)
	var near []*uncertain.PDFObject
	for _, o := range objs {
		if o != nil && o.ID != an.ID && meetsAny(o.Region, wins) {
			near = append(near, o)
		}
	}
	return near
}

func meetsAny(r geom.Rect, wins []geom.Rect) bool {
	for _, w := range wins {
		if w.Intersects(r) {
			return true
		}
	}
	return false
}

// verifyCauses runs the model-independent Definition-1 audit: structural
// checks (ID ranges, duplicates, the responsibility formula, the
// counterfactual flag) plus the two probability conditions per cause,
// evaluated through pr — Pr(an | P − removed − {extra}) under whichever
// probability model the caller binds in (extra < 0 removes nothing extra).
func verifyCauses(n int, alpha float64, res *Result, pr func(removed map[int]bool, extra int) float64) error {
	if res.NonAnswer < 0 || res.NonAnswer >= n {
		return fmt.Errorf("%w: %d", ErrBadObject, res.NonAnswer)
	}
	seen := make(map[int]bool, len(res.Causes))
	for i, c := range res.Causes {
		if c.ID < 0 || c.ID >= n || c.ID == res.NonAnswer {
			return fmt.Errorf("cause %d: bad object ID %d", i, c.ID)
		}
		if seen[c.ID] {
			return fmt.Errorf("cause %d: duplicate object ID %d", i, c.ID)
		}
		seen[c.ID] = true

		want := 1 / float64(1+len(c.Contingency))
		if diff := c.Responsibility - want; diff > 1e-9 || diff < -1e-9 {
			return fmt.Errorf("cause %d: responsibility %v, want 1/%d",
				c.ID, c.Responsibility, 1+len(c.Contingency))
		}
		if c.Counterfactual != (len(c.Contingency) == 0) {
			return fmt.Errorf("cause %d: counterfactual flag inconsistent with |Γ|=%d",
				c.ID, len(c.Contingency))
		}

		removed := make(map[int]bool, len(c.Contingency)+1)
		for _, g := range c.Contingency {
			if g == c.ID || g == res.NonAnswer || g < 0 || g >= n {
				return fmt.Errorf("cause %d: invalid contingency member %d", c.ID, g)
			}
			if removed[g] {
				return fmt.Errorf("cause %d: duplicate contingency member %d", c.ID, g)
			}
			removed[g] = true
		}

		pr1 := pr(removed, -1)
		if !prob.Less(pr1, alpha) {
			return fmt.Errorf("cause %d: an is already an answer on P−Γ (Pr=%v >= α=%v)",
				c.ID, pr1, alpha)
		}
		pr2 := pr(removed, c.ID)
		if !prob.GEq(pr2, alpha) {
			return fmt.Errorf("cause %d: removing it does not flip an (Pr=%v < α=%v)",
				c.ID, pr2, alpha)
		}
	}
	return nil
}

func prWithRemoved(an *uncertain.Object, q geom.Point, objs []*uncertain.Object,
	removed map[int]bool, extra int) float64 {

	act := make([]*uncertain.Object, 0, len(objs))
	for _, o := range objs {
		if o == nil || o.ID == an.ID || removed[o.ID] || o.ID == extra {
			continue
		}
		act = append(act, o)
	}
	return prob.PrReverseSkyline(an, q, act)
}

func prWithRemovedPDF(an *uncertain.PDFObject, q geom.Point, objs []*uncertain.PDFObject,
	removed map[int]bool, extra int, quadNodes int) float64 {

	act := make([]*uncertain.PDFObject, 0, len(objs))
	for _, o := range objs {
		if o == nil || o.ID == an.ID || removed[o.ID] || o.ID == extra {
			continue
		}
		act = append(act, o)
	}
	return prob.PrReverseSkylinePDF(an, q, act, quadNodes)
}
