package prsq

import (
	"context"
	"slices"

	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/ctxutil"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/obs"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/rtree"
	"github.com/crsky/crsky/internal/uncertain"
)

// This file is the query layer: any number of query points — a single
// query is a batch of one — answered by ONE shared left-major descent of
// the R-tree (rtree.JoinSelfStreamBatch) followed by one exact pass per
// query point, all on the caller's goroutine. The online bounds, early
// stream stops, and exact evaluations run per query through the same
// streamState/pdfStreamState, so each query's answer set is independent of
// the batch it rides in, while the left-descent node accesses are paid
// once for the whole batch: for more than one query the total simulated
// I/O is strictly below the sum of the queries run as batches of one.

// batchState is the per-query stream state: both models' stream states
// satisfy it, so one core drives the sample and pdf queries. A begin that
// returns false has accepted the object without a stream: it gets no pair
// and no finish.
type batchState interface {
	leafCore(leaf, core geom.Rect) func(int) bool
	begin(id int, r geom.Rect) bool
	pair(leftID, rightID int, rightRect geom.Rect) bool
	finish(id int) decision
	harvest() (Stats, []int, [][]int32)
}

func (st *streamState) harvest() (Stats, []int, [][]int32) {
	return st.stats, st.undecidedIDs, st.undecidedCands
}

func (st *pdfStreamState) harvest() (Stats, []int, [][]int32) {
	return st.stats, st.undecidedIDs, st.undecidedCands
}

// domWindow is query q's node-level candidate window for the join: the
// bound on the union of the dominance rectangles of every anchor in a
// left rectangle, written into the join's scratch.
func domWindow(q geom.Point) rtree.WindowFunc {
	return func(dst, r geom.Rect) { geom.DomRectUnionOuterInto(dst, r, q) }
}

// queryBatchCore answers every point of qs — the one copy of the query
// orchestration, with the model plugged in through newState (fresh
// per-query stream state) and isAnswer (the exact evaluation of one
// undecided (query, object) pair). It runs two stages:
//
//  1. the join, traced as prsq.join with its node accesses as the
//     rtree.joinNodeAccesses counter: the shared-descent self-join with
//     one stream state per query, which leaves a verdict for every object
//     the bounds decided and each query's undecided band with its
//     candidate lists;
//  2. the exact stage, traced as prsq.exact: for each query in request
//     order, its band evaluated exactly, then its answer collected.
//
// Candidate lists are sorted ascending before evaluation: that is the
// brute-force multiplication order, and superset entries that dominate
// nothing multiply by exactly 1, so the result is bit-identical to
// prob.PRSQ. The exact stage polls ctx before every evaluation.
//
// Stats.Objects counts object-decisions, n × len(qs). A non-nil emit
// observes every query's final answer slice in ascending query order, each
// exactly once, as soon as its band is settled — on a mid-batch
// cancellation only the completed prefix has been emitted, and the error
// return carries no answers. A join canceled before it finished returns
// Stats carrying only Objects, NodeAccesses and EntriesScanned.
func queryBatchCore(ctx context.Context, tree *rtree.Tree, n int, qs []geom.Point,
	newState func(k int) batchState,
	isAnswer func(qIdx, id int, cands []int32) bool,
	emit func(k int, ids []int)) ([][]int, Stats, error) {

	nQ := len(qs)
	if nQ == 0 {
		return [][]int{}, Stats{}, nil
	}
	stats := Stats{Objects: n * nQ}
	verdicts := make([][]decision, nQ)
	windows := make([]rtree.WindowFunc, nQ)
	states := make([]batchState, nQ)
	for k := range qs {
		verdicts[k] = make([]decision, n)
		windows[k] = domWindow(qs[k])
		states[k] = newState(k)
	}

	tr := obs.FromContext(ctx)
	endJoin := tr.StartSpan("prsq.join")
	counts, err := tree.JoinSelfStreamBatch(ctx, windows, rtree.BatchStreamVisitor{
		Leaf: func(k int, leaf, core geom.Rect) func(int) bool { return states[k].leafCore(leaf, core) },
		Begin: func(k, id int, r geom.Rect) bool {
			if states[k].begin(id, r) {
				return true
			}
			verdicts[k][id] = accepted
			return false
		},
		Pair: func(k, leftID, rightID int, rr geom.Rect) bool { return states[k].pair(leftID, rightID, rr) },
		End:  func(k, id int) { verdicts[k][id] = states[k].finish(id) },
	})
	endJoin()
	stats.NodeAccesses = counts.NodeAccesses
	stats.EntriesScanned = counts.EntriesScanned
	tr.Add("rtree.joinNodeAccesses", counts.NodeAccesses)
	if err != nil {
		return nil, stats, wrapCanceled(err, 0)
	}
	// A skipped stream is an object the whole-leaf reject settled: a bound
	// reject whose verdict slot keeps the zero value, rejected.
	stats.LeafRejected = int(counts.Skipped)
	stats.RejectedByBound = stats.LeafRejected
	for _, st := range states {
		s, _, _ := st.harvest()
		stats.add(s)
	}

	endExact := tr.StartSpan("prsq.exact")
	defer endExact()
	poll := ctxutil.NewPoll(ctx, 1) // an exact evaluation is the expensive unit
	evaluated := 0
	out := make([][]int, nQ)
	for k, st := range states {
		_, ids, cands := st.harvest()
		for i, id := range ids {
			if err := poll.Check(); err != nil {
				return nil, stats, wrapCanceled(err, evaluated)
			}
			slices.Sort(cands[i])
			verdicts[k][id] = rejected
			if isAnswer(k, id, cands[i]) {
				verdicts[k][id] = accepted
			}
			evaluated++
		}
		out[k] = collect(verdicts[k])
		if emit != nil {
			emit(k, out[k])
		}
	}
	stats.Evaluated = evaluated
	stats.addToTrace(tr)
	return out, stats, nil
}

// sampleStates is the sample model's per-query stream-state factory.
func sampleStates(ds *dataset.Uncertain, qs []geom.Point, alpha float64, opt Options) func(k int) batchState {
	wsum := ds.WeightSums()
	var sums []dataset.Summary
	if !opt.NoBounds && !opt.NoTier2 {
		sums = ds.Summaries()
	}
	certain := func(id int) bool { return wsum[id] == 1 }
	return func(k int) batchState {
		return &streamState{ds: ds, q: qs[k], alpha: alpha, opt: opt, wsum: wsum, sums: sums, certain: certain}
	}
}

// pdfStates is the continuous model's per-query stream-state factory.
func pdfStates(set *causality.PDFSet, qs []geom.Point, alpha float64, opt Options) func(k int) batchState {
	return func(k int) batchState {
		return &pdfStreamState{set: set, q: qs[k], alpha: alpha, opt: opt}
	}
}

// QueryBatchStreamStatsCtx answers the probabilistic reverse skyline for
// every query point at once — the index-accelerated equivalent of prob.PRSQ
// per point, a single query being a batch of one — returning one ascending
// answer-ID slice per point with execution statistics aggregated over the
// batch. The whole query runs on the caller's goroutine. A non-nil emit
// observes every query's final answer slice in request order, each
// exactly once, as soon as it is final — before the rest of the batch
// finishes computing. The callback must not re-enter the engine.
//
// The join and the exact stage poll ctx (amortized) and stop mid-query
// when it fires, returning a typed *ctxutil.CanceledError that wraps the
// context error and carries the exact evaluations completed before the
// stop; only the completed prefix has been emitted, and the call returns
// no answers. An uncanceled run is deterministic, node accesses included.
func QueryBatchStreamStatsCtx(ctx context.Context, ds *dataset.Uncertain, qs []geom.Point, alpha float64, opt Options,
	emit func(k int, ids []int)) ([][]int, Stats, error) {

	var objs []*uncertain.Object // one candidate slice, reused by every evaluation
	return queryBatchCore(ctx, ds.Tree(), ds.Len(), qs, sampleStates(ds, qs, alpha, opt),
		func(qIdx, id int, cs []int32) bool {
			objs = objs[:0]
			for _, cid := range cs {
				objs = append(objs, ds.Objects[cid])
			}
			return prob.GEq(prob.PrReverseSkyline(ds.Objects[id], qs[qIdx], objs), alpha)
		},
		emit)
}

// QueryBatchPDFStreamStatsCtx is the continuous-model query with the
// contract of QueryBatchStreamStatsCtx: the same shared join with the pdf
// per-query stream states, then each query's survivors evaluated by
// quadrature. quadNodes is the per-dimension quadrature resolution (<= 0
// selects the dimension-adapted default, exactly as the naive path does).
func QueryBatchPDFStreamStatsCtx(ctx context.Context, set *causality.PDFSet, qs []geom.Point, alpha float64, quadNodes int, opt Options,
	emit func(k int, ids []int)) ([][]int, Stats, error) {

	var objs []*uncertain.PDFObject // one candidate slice, reused by every evaluation
	return queryBatchCore(ctx, set.Tree(), set.Len(), qs, pdfStates(set, qs, alpha, opt),
		func(qIdx, id int, cs []int32) bool {
			objs = objs[:0]
			for _, cid := range cs {
				objs = append(objs, set.Objects[cid])
			}
			return prob.GEq(prob.PrReverseSkylinePDF(set.Objects[id], qs[qIdx], objs, quadNodes), alpha)
		},
		emit)
}
