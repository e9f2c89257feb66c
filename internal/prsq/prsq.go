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
//     its candidate stream immediately — most objects are rejected after a
//     handful of candidates without ever materializing their full list.
//     A second bound tier refines partial overlaps: per-candidate
//     dominance-probability bounds derived from the candidate's sub-MBR
//     weight summary (dataset.Summary) multiply into per-sample Eq.-2 term
//     bounds, shrinking the undecided band — and stopping streams early —
//     at thresholds the all-or-nothing tests cannot reach.
//  3. Parallel refinement: the filtering join itself fans out per R-tree
//     subtree onto a worker pool (each worker owning its own stream state),
//     and the undecided band is evaluated exactly (Eq. 2) on the same pool,
//     each worker owning scratch buffers reused across objects. The
//     approximate tier reuses the join stage and settles the band by Monte
//     Carlo instead.
//
// The result is bit-identical to the brute-force prob.PRSQ: excluded
// non-candidates contribute exact ×1 factors, candidate lists are evaluated
// in ascending ID order (the brute-force multiplication order), and every
// bound is conservative with respect to the Eps-tolerant threshold test.
package prsq

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/crsky/crsky/internal/ctxutil"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/obs"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/uncertain"
)

// Options tunes the query execution. The zero value selects full
// acceleration: bounds on, one evaluation worker per CPU.
type Options struct {
	// Parallel is the number of workers for both the filtering join and
	// the exact evaluation of the undecided band: 1 runs serially, values
	// <= 0 select runtime.GOMAXPROCS(0). Results are identical for every
	// setting.
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
	// StageBudget, when the context carries a deadline, caps the filtering
	// join at half the remaining budget: a join that stalls (skewed data,
	// injected faults) then times out with a slice of the deadline still
	// unspent, leaving the refinement stage — or a degraded fallback armed
	// by the caller — a guaranteed share instead of inheriting an already
	// exhausted context. Without a deadline, or unset, nothing changes.
	StageBudget bool
}

// joinSlice derives the filtering join's stage context under StageBudget.
func (o Options) joinSlice(ctx context.Context) (context.Context, context.CancelFunc) {
	if !o.StageBudget {
		return ctx, func() {}
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return ctx, func() {}
	}
	rem := time.Until(dl)
	if rem <= 0 {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, time.Now().Add(rem/2))
}

func (o Options) workers(n int) int {
	w := o.Parallel
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
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
	// bound alone.
	RejectedByBound int
	// AcceptedByTier2 counts objects the second-tier (sub-MBR summary)
	// lower bound accepted after the first tier could not decide them.
	AcceptedByTier2 int
	// RejectedByTier2 counts objects the second-tier upper bound rejected
	// after the first tier could not decide them.
	RejectedByTier2 int
	// Evaluated counts full Eq.-2 evaluations (the undecided band).
	Evaluated int
}

// add folds the per-worker counters of o into s (Objects and Evaluated are
// owned by the merger).
func (s *Stats) add(o Stats) {
	s.CandidatePairs += o.CandidatePairs
	s.EmptyCandidates += o.EmptyCandidates
	s.AcceptedByBound += o.AcceptedByBound
	s.RejectedByBound += o.RejectedByBound
	s.AcceptedByTier2 += o.AcceptedByTier2
	s.RejectedByTier2 += o.RejectedByTier2
}

// decision is a per-object query verdict.
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
}

// wrapCanceled binds the query path's partial statistic (exact
// evaluations completed before the stop) into the shared typed
// cancellation error.
func wrapCanceled(err error, evaluated int) error {
	return ctxutil.WrapCanceled(err, 0, evaluated)
}

// streamState is the per-(worker, query) state of the online filter+bound
// pass. The join reports each object's candidates consecutively within a
// worker, so one scratch buffer set serves every object of that worker in
// turn.
type streamState struct {
	ds    *dataset.Uncertain
	q     geom.Point
	alpha float64
	opt   Options
	wsum  []float64
	sums  []dataset.Summary // per-candidate sub-MBR summaries; nil = tier 2 off
	stats Stats

	// Per-current-object scratch, reset by begin.
	u          *uncertain.Object
	inner      []geom.Rect // per-sample dominance rectangles (exact)
	outer      []geom.Rect // per-sample dominance rectangles (outward pad)
	covered    []bool      // sample term is exactly 0
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

func (st *streamState) begin(id int, _ geom.Rect) bool {
	u := st.ds.Objects[id]
	l := len(u.Samples)
	st.u = u
	st.inner = st.inner[:0]
	st.outer = st.outer[:0]
	if cap(st.covered) < l {
		st.covered = make([]bool, l)
		st.ubProd = make([]float64, l)
		st.lbProd = make([]float64, l)
	}
	st.covered = st.covered[:l]
	st.ubProd = st.ubProd[:l]
	st.lbProd = st.lbProd[:l]
	for i, s := range u.Samples {
		st.inner = append(st.inner, geom.DomRect(s.Loc, st.q))
		st.outer = append(st.outer, geom.DomRectOuter(s.Loc, st.q))
		st.covered[i] = false
		st.ubProd[i] = 1
		st.lbProd[i] = 1
	}
	st.coveredCnt = 0
	st.rejectedNow = false
	st.rejectedTier = 0
	st.buf = st.buf[:0]
	return true
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
	for k := range sm.Rects {
		if !sm.Rects[k].Intersects(st.outer[i]) {
			continue
		}
		ubDom += sm.Weights[k]
		if strictlyInside(&sm.Rects[k], &st.inner[i]) {
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
func (st *streamState) pair(_, cid int, cRect geom.Rect) bool {
	st.stats.CandidatePairs++
	st.buf = append(st.buf, int32(cid))
	if st.opt.NoBounds {
		return true
	}
	certain := st.wsum[cid] == 1
	coveredMore := false
	tier2More := false
	for i := range st.inner {
		if st.covered[i] {
			continue
		}
		if !cRect.Intersects(st.outer[i]) {
			continue // the candidate's factor for this sample is exactly 1
		}
		if certain && strictlyInside(&cRect, &st.inner[i]) {
			st.covered[i] = true
			st.coveredCnt++
			st.lbProd[i] = 0
			coveredMore = true
			continue
		}
		// A candidate disjoint from the exact dominance rectangle can put
		// no group strictly inside it, so the summary loop cannot tighten
		// the upper bound; fall back to the first-tier lower bound.
		if st.sums == nil || !cRect.Intersects(st.inner[i]) {
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
	if !(st.alpha > prob.Eps) {
		return true
	}
	// Full coverage: every Eq.-2 term is exactly 0, so Pr(u) = 0 < α for
	// any valid threshold above the comparison tolerance.
	if coveredMore && st.coveredCnt == len(st.inner) {
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
		if st.coveredCnt == len(st.inner) && st.alpha > prob.Eps {
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

// evaluate runs the exact stage over the undecided band, serially or on a
// worker pool, feeding each item's exact decision to set. Candidate lists
// are sorted ascending first: that is the brute-force multiplication order,
// and superset entries that dominate nothing multiply by exactly 1, so the
// result is bit-identical to prob.PRSQ. Each worker polls ctx between
// items (exact evaluations are the expensive unit, so the poll stride is
// 1) and the first context error is returned together with the number of
// items decided before the stop.
func evaluate(ctx context.Context, cands [][]int32, opt Options,
	decide func(k int) bool, set func(k int, d decision)) (int, error) {

	for _, c := range cands {
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	}
	settle := func(k int) {
		if decide(k) {
			set(k, accepted)
		} else {
			set(k, rejected)
		}
	}
	n := len(cands)
	workers := opt.workers(n)
	if workers <= 1 {
		poll := ctxutil.NewPoll(ctx, 1)
		for k := 0; k < n; k++ {
			if err := poll.Check(); err != nil {
				return k, err
			}
			settle(k)
		}
		return n, nil
	}
	var wg sync.WaitGroup
	var done atomic.Int64
	errs := make([]error, workers)
	for wi := 0; wi < workers; wi++ {
		wi := wi
		wg.Add(1)
		go func() {
			defer wg.Done()
			poll := ctxutil.NewPoll(ctx, 1)
			// Strided sharding; verdict slots are disjoint per worker.
			for k := wi; k < n; k += workers {
				if err := poll.Check(); err != nil {
					errs[wi] = err
					return
				}
				settle(k)
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return int(done.Load()), err
		}
	}
	return n, nil
}

// candPool recycles the evaluation stage's candidate object slices across
// queries and workers.
var candPool = sync.Pool{
	New: func() any { return new([]*uncertain.Object) },
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
