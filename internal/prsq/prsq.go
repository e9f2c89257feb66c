// Package prsq answers probabilistic reverse skyline queries (Definition 4)
// at dataset scale. It replaces the naive per-object loop — one R-tree
// traversal plus one full Eq.-2 evaluation for each of the n objects — with
// the paper's filter-and-refinement framework applied to the whole query:
//
//  1. Batch filtering: a single R-tree self-join (one left-major pass over
//     the tree, each node's partner list pruned by the node-level dominance
//     window) streams the candidates of every object, instead of n
//     independent multi-window traversals. The pass serves a whole batch of
//     query points at once — a single query is a batch of one.
//  2. Bound-based pruning: cheap MBR-level dominance tests run online
//     inside the stream and maintain per-object upper/lower probability
//     bounds. An object whose every sample is certainly dominated stops
//     its candidate stream immediately. Before any stream, a left leaf
//     whose box does not straddle q is rejected whole when a certain
//     object lies strictly inside the MBR core of the leaf's box — the
//     intersection of the dominance rectangles of every point in it — so
//     its objects get no stream at all. In the other leaves the first
//     candidate is tested against the object's own MBR core before any
//     per-sample state is built, and the join streams the object's own
//     leaf first, so most objects are rejected by one rectangle test at
//     their first candidate, with no allocation. A second bound tier
//     refines partial overlaps:
//     per-candidate dominance-probability bounds derived from the
//     candidate's sub-MBR weight summary (dataset.Summary) multiply into
//     per-sample Eq.-2 term bounds, shrinking the undecided band — and
//     stopping streams early — at thresholds the all-or-nothing tests
//     cannot reach.
//  3. Refinement: the undecided band is evaluated exactly (Eq. 2), one
//     query point after another, each point's answer final as soon as its
//     band is. The whole query runs on the caller's goroutine; callers
//     that want throughput run queries concurrently.
//
// The result is bit-identical to the brute-force prob.PRSQ: excluded
// non-candidates contribute exact ×1 factors, candidate lists are evaluated
// in ascending ID order (the brute-force multiplication order), and every
// bound is conservative with respect to the Eps-tolerant threshold test.
package prsq

import (
	"github.com/crsky/crsky/internal/ctxutil"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/obs"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/uncertain"
)

// Options tunes the query execution. The zero value selects full
// acceleration: both bound tiers on.
type Options struct {
	// Deprecated: every query runs on its caller's goroutine, and the
	// value is ignored.
	Parallel int
	// NoBounds disables the online bound pruning (ablation / benchmarking
	// switch; results are unchanged, every object pays the full Eq.-2
	// evaluation).
	NoBounds bool
	// NoTier2 disables only the second bound tier — the per-candidate
	// dominance-probability bounds from sub-MBR weight summaries — leaving
	// the all-or-nothing MBR tests in place (ablation switch; results are
	// unchanged).
	NoTier2 bool
	// QuadNodes is the per-dimension quadrature resolution for the pdf
	// model (<= 0 selects the dimension-adapted default). The sample and
	// certain models ignore it; it lives here so the model-generic v2
	// query API needs no per-model signature.
	QuadNodes int
}

// Stats reports how the query was answered — in particular how much work
// the online bounds saved.
type Stats struct {
	// Objects is the dataset cardinality n.
	Objects int
	// CandidatePairs counts candidate stream entries actually visited;
	// early-stopped objects contribute only their prefix.
	CandidatePairs int
	// EmptyCandidates counts objects whose candidate stream is empty. In
	// the sample model they are settled from the precomputed weight sum
	// without evaluation; in the pdf model they still run the (cheap,
	// candidate-free) quadrature and are counted in Evaluated as well.
	EmptyCandidates int
	// AcceptedByBound counts objects accepted by the first-tier lower
	// bound alone.
	AcceptedByBound int
	// RejectedByBound counts objects rejected by the first-tier upper
	// bound alone, LeafRejected included.
	RejectedByBound int
	// AcceptedByTier2 counts objects the second-tier (sub-MBR summary)
	// lower bound accepted after the first tier could not decide them.
	AcceptedByTier2 int
	// RejectedByTier2 counts objects the second-tier upper bound rejected
	// after the first tier could not decide them.
	RejectedByTier2 int
	// Evaluated counts full Eq.-2 evaluations (the undecided band).
	Evaluated int
	// LeafRejected counts objects the join's whole-leaf reject settled
	// with no stream at all: a certain object strictly inside their leaf
	// box's MBR core dominates every sample of each of them. They are
	// counted in RejectedByBound as well.
	LeafRejected int
	// NodeAccesses is the simulated I/O of the call's R-tree traversal
	// (the shared join, or the certain model's BBRS traversal and its
	// verification window queries), also for a canceled call.
	NodeAccesses int64
	// EntriesScanned counts the join's rectangle tests against partner
	// leaf boxes and right entries (rtree.JoinCounts.EntriesScanned): the
	// CPU work of the filter, which node accesses do not show.
	EntriesScanned int64
}

// add folds one query's stream counters o into s (Objects, Evaluated,
// LeafRejected, NodeAccesses and EntriesScanned are counted by the batch).
func (s *Stats) add(o Stats) {
	s.CandidatePairs += o.CandidatePairs
	s.EmptyCandidates += o.EmptyCandidates
	s.AcceptedByBound += o.AcceptedByBound
	s.RejectedByBound += o.RejectedByBound
	s.AcceptedByTier2 += o.AcceptedByTier2
	s.RejectedByTier2 += o.RejectedByTier2
}

// decision is a per-object query verdict. The zero value is rejected, so
// an object the join's whole-leaf reject skips needs no write.
type decision uint8

const (
	rejected decision = iota
	accepted
	undecided
)

// addToTrace folds the query's effort counters into a request trace (nil tr
// is a no-op). Counter names are the Stats field names with a prsq prefix —
// the vocabulary the ?trace=1 response and the slow-query log share.
func (s Stats) addToTrace(tr *obs.Trace) {
	if tr == nil {
		return
	}
	tr.Add("prsq.objects", int64(s.Objects))
	tr.Add("prsq.candidatePairs", int64(s.CandidatePairs))
	tr.Add("prsq.emptyCandidates", int64(s.EmptyCandidates))
	tr.Add("prsq.acceptedByBound", int64(s.AcceptedByBound))
	tr.Add("prsq.rejectedByBound", int64(s.RejectedByBound))
	tr.Add("prsq.acceptedByTier2", int64(s.AcceptedByTier2))
	tr.Add("prsq.rejectedByTier2", int64(s.RejectedByTier2))
	tr.Add("prsq.evaluated", int64(s.Evaluated))
	tr.Add("prsq.leafRejected", int64(s.LeafRejected))
	tr.Add("prsq.entriesScanned", s.EntriesScanned)
}

// wrapCanceled binds the query path's partial statistic (exact
// evaluations completed before the stop) into the shared typed
// cancellation error.
func wrapCanceled(err error, evaluated int) error {
	return ctxutil.WrapCanceled(err, 0, evaluated)
}

// streamState is the per-query state of the online filter+bound pass. The
// join reports each object's candidates consecutively, so one scratch
// buffer set serves every object in turn, and a typical object allocates
// nothing.
type streamState struct {
	ds    *dataset.Uncertain
	q     geom.Point
	alpha float64
	opt   Options
	wsum  []float64
	sums  []dataset.Summary // per-candidate sub-MBR summaries; nil = tier 2 off
	// certain reports whether an object exists with certainty (wsum == 1):
	// the whole-leaf reject's cover predicate, built once per query.
	certain func(id int) bool
	stats   Stats

	// Per-current-object scratch. begin records only the object and its
	// MBR; the per-sample state below is built on the object's first
	// streamed pair (u == nil until then), unless the MBR core settles the
	// object at that pair.
	id  int
	mbr geom.Rect
	u   *uncertain.Object
	// inner and outer hold the per-sample dominance rectangles, exact and
	// outward-padded, flat: sample i's Min then Max (see sampleRect).
	inner      []float64
	outer      []float64
	covered    []bool // sample term is exactly 0
	coveredCnt int
	// ubProd[i] and lbProd[i] bound the Eq.-2 product term of sample i from
	// above and below: each streamed candidate multiplies (1 − lbDom) resp.
	// (1 − ubDom) into them, where lbDom/ubDom bound the candidate's
	// dominance probability at the sample from its sub-MBR summary. With
	// tier 2 off they degenerate to the all-or-nothing values (1 forever,
	// resp. 0 on first overlap), reproducing the first-tier "free" flag.
	ubProd       []float64
	lbProd       []float64
	rejectedNow  bool  // stream stopped early on a reject bound
	rejectedTier uint8 // 1 = full coverage, 2 = summary bound
	buf          []int32

	// Undecided band collected for the exact evaluation stage.
	undecidedIDs   []int
	undecidedCands [][]int32
}

// begin starts object id's stream. At α ≤ prob.Eps every live object is an
// answer (Pr ≥ 0 ≥ α − Eps), so unless bounds are off begin accepts it at
// tier 1 and returns false: no pair, no finish and no Eq.-2 evaluation. The
// bounds in pair and finish therefore only ever see α > Eps.
func (st *streamState) begin(id int, mbr geom.Rect) bool {
	if !st.opt.NoBounds && !(st.alpha > prob.Eps) {
		st.stats.AcceptedByBound++
		return false
	}
	st.id = id
	st.mbr = mbr
	st.u = nil
	st.rejectedNow = false
	st.rejectedTier = 0
	st.buf = st.buf[:0]
	return true
}

// build sets up the current object's per-sample state: its dominance
// rectangles and bound products, in scratch reused across objects.
func (st *streamState) build() {
	u := st.ds.Objects[st.id]
	l, d := len(u.Samples), len(st.q)
	st.u = u
	if cap(st.covered) < l {
		st.covered = make([]bool, l)
		st.ubProd = make([]float64, l)
		st.lbProd = make([]float64, l)
		st.inner = make([]float64, 2*d*l)
		st.outer = make([]float64, 2*d*l)
	}
	st.covered = st.covered[:l]
	st.ubProd = st.ubProd[:l]
	st.lbProd = st.lbProd[:l]
	for i, s := range u.Samples {
		geom.DomRectInto(sampleRect(st.inner, i, d), s.Loc, st.q)
		geom.DomRectOuterInto(sampleRect(st.outer, i, d), s.Loc, st.q)
		st.covered[i] = false
		st.ubProd[i] = 1
		st.lbProd[i] = 1
	}
	st.coveredCnt = 0
}

// sampleRect is sample i's rectangle in a flat per-sample buffer of
// d-dimensional rectangles (Min then Max per sample): a view, so writes
// through it land in buf.
func sampleRect(buf []float64, i, d int) geom.Rect {
	o := 2 * d * i
	return geom.Rect{Min: buf[o : o+d : o+d], Max: buf[o+d : o+2*d : o+2*d]}
}

// coreAxis is axis j of the MBR core of a box [min, max] w.r.t. q: the
// intersection of the dominance rectangles geom.DomRect(s, q) of all points
// s in the box. It is (q, 2·min−q) when q < min and (2·max−q, q) when
// q > max; ok is false when min ≤ q ≤ max, where the core is the single
// point q, which nothing lies strictly inside. Doubling is exact and
// rounding is monotone, so 2·min−q is exactly the smallest of the points'
// 2·s−q (and 2·max−q the largest).
func coreAxis(qj, min, max float64) (lo, hi float64, ok bool) {
	switch {
	case qj < min:
		return qj, 2*min - qj, true
	case qj > max:
		return 2*max - qj, qj, true
	}
	return 0, 0, false
}

// insideMBRCore reports whether c lies strictly inside the MBR core of an
// object with bounding box mbr (see coreAxis): exactly when c lies
// strictly inside every sample's DomRect.
func insideMBRCore(c, mbr geom.Rect, q geom.Point) bool {
	for j, qj := range q {
		lo, hi, ok := coreAxis(qj, mbr.Min[j], mbr.Max[j])
		if !ok || c.Min[j] <= lo || c.Max[j] >= hi {
			return false
		}
	}
	return true
}

// leafCore is the join's whole-leaf reject (rtree.BatchStreamVisitor.Leaf):
// it writes the MBR core of a left leaf's box into core and returns the
// cover predicate, or nil when the box straddles q on some axis, under
// NoBounds, or when α ≤ prob.Eps. A parent box contains every member's MBR
// and rounding is monotone, so the leaf core lies inside every member's
// MBR core: a certain object strictly inside it is, for every other
// member, the certain candidate inside its MBR core that pair rejects on,
// so each of their Pr is exactly 0.
func (st *streamState) leafCore(leaf, core geom.Rect) func(int) bool {
	if st.opt.NoBounds || !(st.alpha > prob.Eps) {
		return nil
	}
	for j, qj := range st.q {
		lo, hi, ok := coreAxis(qj, leaf.Min[j], leaf.Max[j])
		if !ok {
			return nil
		}
		core.Min[j], core.Max[j] = lo, hi
	}
	return st.certain
}

// domBounds bounds candidate cid's dominance probability at sample i from
// its sub-MBR summary: groups strictly inside the exact dominance rectangle
// dominate with all their mass (lower bound), groups missing the padded
// window dominate with none of it (upper bound). The results are clamped so
// they stay conservative under the snap applied by prob.DomProb: a lower
// bound inside the snap-to-zero band is dropped, an upper bound inside the
// snap-to-one band is rounded up to certainty.
func (st *streamState) domBounds(cid, i int) (lbDom, ubDom float64) {
	sm := &st.sums[cid]
	d := len(st.q)
	inner, outer := sampleRect(st.inner, i, d), sampleRect(st.outer, i, d)
	for k := range sm.Rects {
		if !sm.Rects[k].Intersects(outer) {
			continue
		}
		ubDom += sm.Weights[k]
		if strictlyInside(&sm.Rects[k], &inner) {
			lbDom += sm.Weights[k]
		}
	}
	if lbDom <= prob.Eps {
		lbDom = 0
	} else if lbDom > 1 {
		lbDom = 1
	}
	if ubDom >= 1-prob.Eps {
		ubDom = 1
	}
	return lbDom, ubDom
}

// pair folds one streamed candidate into the bounds and buffers it for a
// potential exact evaluation. Returning false stops the current object's
// stream: either every sample is certainly dominated (Pr(u) is exactly 0),
// or the second-tier upper bound has already fallen below the threshold —
// in both cases no further candidate can change the verdict, because
// streaming more candidates only multiplies more factors ≤ 1 into every
// bound.
//
// The object's first pair is tested against its MBR core before any
// per-sample state exists: a certain candidate strictly inside the core
// covers every sample, which is exactly the full-coverage reject the
// per-sample loop below would reach at this pair, so Stats are unchanged.
// The join streams the object's own leaf first, so this one test settles
// most objects the whole-leaf reject (leafCore) left.
func (st *streamState) pair(_, cid int, cRect geom.Rect) bool {
	st.stats.CandidatePairs++
	st.buf = append(st.buf, int32(cid))
	if st.opt.NoBounds {
		return true
	}
	certain := st.wsum[cid] == 1
	if st.u == nil {
		if certain && insideMBRCore(cRect, st.mbr, st.q) {
			st.rejectedNow = true
			st.rejectedTier = 1
			return false
		}
		st.build()
	}
	d := len(st.q)
	coveredMore := false
	tier2More := false
	for i := range st.covered {
		if st.covered[i] {
			continue
		}
		inner := sampleRect(st.inner, i, d)
		if !cRect.Intersects(sampleRect(st.outer, i, d)) {
			continue // the candidate's factor for this sample is exactly 1
		}
		if certain && strictlyInside(&cRect, &inner) {
			st.covered[i] = true
			st.coveredCnt++
			st.lbProd[i] = 0
			coveredMore = true
			continue
		}
		// A candidate disjoint from the exact dominance rectangle can put
		// no group strictly inside it, so the summary loop cannot tighten
		// the upper bound; fall back to the first-tier lower bound.
		if st.sums == nil || !cRect.Intersects(inner) {
			st.lbProd[i] = 0
			continue
		}
		lbDom, ubDom := st.domBounds(cid, i)
		if ubDom < 1 {
			st.lbProd[i] *= 1 - ubDom
		} else {
			st.lbProd[i] = 0
		}
		if lbDom > 0 {
			st.ubProd[i] *= 1 - lbDom
			tier2More = true
		}
	}
	// Full coverage: every Eq.-2 term is exactly 0, so Pr(u) = 0 < α for
	// any threshold above the comparison tolerance, which begin ensures.
	if coveredMore && st.coveredCnt == len(st.covered) {
		st.rejectedNow = true
		st.rejectedTier = 1
		return false
	}
	// Re-derive the tier-2 reject sum only when a factor actually moved —
	// the common fully-covering candidate never pays for it.
	if tier2More {
		var ub float64
		for i, s := range st.u.Samples {
			if !st.covered[i] {
				ub += s.P * st.ubProd[i]
			}
		}
		if prob.Less(ub, st.alpha) {
			st.rejectedNow = true
			st.rejectedTier = 2
			return false
		}
	}
	return true
}

// finish settles the current object or queues it for exact evaluation.
func (st *streamState) finish(id int) decision {
	u := st.u
	if len(st.buf) == 0 {
		// Every Eq.-2 factor is exactly 1, so Pr(u) = snap(Σ p_i) — the
		// precomputed weight sum. That is usually 1, but validation
		// tolerates sums up to 1e-6 away from one, which snap does not
		// collapse; the α comparison must still run on the exact value
		// or thresholds near 1 would disagree with brute force.
		st.stats.EmptyCandidates++
		if prob.GEq(st.wsum[id], st.alpha) {
			return accepted
		}
		return rejected
	}
	if !st.opt.NoBounds {
		if st.rejectedNow {
			if st.rejectedTier == 2 {
				st.stats.RejectedByTier2++
			} else {
				st.stats.RejectedByBound++
			}
			return rejected
		}
		if st.coveredCnt == len(st.covered) {
			st.stats.RejectedByBound++
			return rejected
		}
		// First tier — all-or-nothing MBR tests, exactly the historical
		// bounds:
		//   ub1 ≥ Pr(u): covered samples contribute exactly 0; every other
		//   term is at most p_i (factors ≤ 1 only shrink a product, and
		//   dropping non-negative terms only shrinks a float sum).
		//   lb1 ≤ Pr(u): untouched samples (lbProd still 1) contribute
		//   exactly p_i.
		// Second tier — the same sums with the per-sample bound products
		// folded in: ub2 ≤ ub1 and lb2 ≥ lb1 by construction.
		var ub1, lb1, ub2, lb2 float64
		for i, s := range u.Samples {
			if !st.covered[i] {
				ub1 += s.P
				ub2 += s.P * st.ubProd[i]
				if st.lbProd[i] == 1 {
					lb1 += s.P
				}
				lb2 += s.P * st.lbProd[i]
			}
		}
		switch {
		case lb1 >= st.alpha:
			st.stats.AcceptedByBound++
			return accepted
		case prob.Less(ub1, st.alpha):
			st.stats.RejectedByBound++
			return rejected
		case st.sums != nil && lb2 >= st.alpha:
			st.stats.AcceptedByTier2++
			return accepted
		case st.sums != nil && prob.Less(ub2, st.alpha):
			st.stats.RejectedByTier2++
			return rejected
		}
	}
	st.undecidedIDs = append(st.undecidedIDs, id)
	st.undecidedCands = append(st.undecidedCands, append([]int32(nil), st.buf...))
	return undecided
}

// collect turns the verdict array into the ascending answer ID list. The
// result is never nil, so callers can marshal it directly (JSON [] rather
// than null).
func collect(verdicts []decision) []int {
	out := make([]int, 0, 16)
	for id, v := range verdicts {
		if v == accepted {
			out = append(out, id)
		}
	}
	return out
}

// strictlyInside reports whether m lies strictly inside r on every axis —
// every point of m then dynamically dominates q w.r.t. r's center with
// strict inequality on all dimensions.
func strictlyInside(m, r *geom.Rect) bool {
	for i := range r.Min {
		if m.Min[i] <= r.Min[i] || m.Max[i] >= r.Max[i] {
			return false
		}
	}
	return true
}
