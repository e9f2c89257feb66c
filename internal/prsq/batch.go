package prsq

import (
	"context"
	"sync"

	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/obs"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/rtree"
	"github.com/crsky/crsky/internal/uncertain"
)

// This file is the query layer: any number of query points — a single
// query is a batch of one — answered by ONE shared left-major descent of
// the R-tree (rtree.JoinSelfStreamBatch) followed by ONE exact stage. The
// online bounds, early stream stops, and exact evaluations run per
// (worker, query) through the same streamState/pdfStreamState, so each
// query's answer set is independent of the batch it rides in, while the
// left-descent node accesses are paid once for the whole batch: for more
// than one query the total simulated I/O is strictly below the sum of the
// queries run as batches of one. The undecided bands of all queries merge
// into one exact-evaluation pass sharing the worker pool, so a query with a
// hard band cannot serialize behind its siblings.

// batchItem is one undecided (query, object) pair awaiting exact
// evaluation.
type batchItem struct {
	q  int
	id int
}

// batchState is the per-(worker, query) stream state: both models'
// stream states satisfy it, so one core drives the sample and pdf
// queries. A begin that returns false has accepted the object without a
// stream: it gets no pair and no finish.
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
// left rectangle, written into the join worker's scratch.
func domWindow(q geom.Point) rtree.WindowFunc {
	return func(dst, r geom.Rect) { geom.DomRectUnionOuterInto(dst, r, q) }
}

// batchEmitter streams finished per-query answers in ascending request
// order while the merged exact stage is still running: every query tracks
// how many undecided evaluations it still owes, and the ordered frontier
// advances — computing collect() and firing emit — as soon as the next
// query in request order owes none. Emit runs under the emitter mutex, so
// calls are serialized, strictly ordered, and each query fires exactly
// once; the callback must not re-enter the batch.
type batchEmitter struct {
	mu       sync.Mutex
	emit     func(k int, ids []int)
	pending  []int // outstanding undecided evaluations per query
	verdicts [][]decision
	out      [][]int
	next     int // first query not yet emitted
}

// settle records one finished evaluation for query k and advances the
// frontier past every newly final query.
func (em *batchEmitter) settle(k int) {
	em.mu.Lock()
	em.pending[k]--
	em.flushLocked()
	em.mu.Unlock()
}

func (em *batchEmitter) flushLocked() {
	for em.next < len(em.pending) && em.pending[em.next] == 0 {
		k := em.next
		em.out[k] = collect(em.verdicts[k])
		if em.emit != nil {
			em.emit(k, em.out[k])
		}
		em.next++
	}
}

// queryBatchCore answers every point of qs — the one copy of the query
// orchestration, with the model plugged in through newState (fresh
// per-query stream state for a join worker) and isAnswer (the exact
// evaluation of one undecided (query, object) pair). It runs two stages:
//
//  1. the join, traced as prsq.join with its node accesses as the
//     rtree.joinNodeAccesses counter: the shared-descent self-join with
//     one stream state per (worker, query), which leaves a verdict for
//     every object the bounds decided and the undecided (query, object)
//     band with its candidate lists;
//  2. the merged exact stage over that band, traced as prsq.exact.
//
// Stats.Objects counts object-decisions, n × len(qs). A non-nil emit
// observes every query's final answer slice in ascending query order, each
// exactly once, as soon as it is final — on a mid-batch cancellation only
// the completed prefix has been emitted, and the error return carries no
// answers. A join canceled before it finished returns Stats carrying only
// Objects, NodeAccesses and EntriesScanned.
func queryBatchCore(ctx context.Context, tree *rtree.Tree, n int, qs []geom.Point, opt Options,
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
	for k := range qs {
		verdicts[k] = make([]decision, n)
		windows[k] = domWindow(qs[k])
	}

	// Verdict slots are disjoint per left object, so the join workers
	// never write the same element.
	var mu sync.Mutex
	var workerStates [][]batchState
	tr := obs.FromContext(ctx)
	endJoin := tr.StartSpan("prsq.join")
	counts, err := tree.JoinSelfStreamBatch(ctx, windows, opt.workers(n), func() rtree.BatchStreamVisitor {
		states := make([]batchState, nQ)
		for k := range states {
			states[k] = newState(k)
		}
		mu.Lock()
		workerStates = append(workerStates, states)
		mu.Unlock()
		return rtree.BatchStreamVisitor{
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
		}
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
	var items []batchItem
	var cands [][]int32
	for _, states := range workerStates {
		for k, st := range states {
			s, ids, cs := st.harvest()
			stats.add(s)
			for i, id := range ids {
				items = append(items, batchItem{q: k, id: id})
				cands = append(cands, cs[i])
			}
		}
	}

	em := &batchEmitter{emit: emit, pending: make([]int, nQ), verdicts: verdicts, out: make([][]int, nQ)}
	for _, it := range items {
		em.pending[it.q]++
	}
	// Queries the join fully decided owe no exact work: flush them now so a
	// batch whose first queries have empty undecided bands streams
	// immediately, before the merged exact stage even starts.
	em.mu.Lock()
	em.flushLocked()
	em.mu.Unlock()

	endExact := tr.StartSpan("prsq.exact")
	evaluated, err := evaluate(ctx, cands, opt,
		func(k int) bool { return isAnswer(items[k].q, items[k].id, cands[k]) },
		func(k int, d decision) {
			verdicts[items[k].q][items[k].id] = d
			em.settle(items[k].q)
		})
	endExact()
	if err != nil {
		return nil, stats, wrapCanceled(err, evaluated)
	}
	stats.Evaluated = len(items)
	stats.addToTrace(tr)
	return em.out, stats, nil
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
// batch. A non-nil
// emit observes every query's final answer slice in request order, each
// exactly once, as soon as it is final — before the rest of the batch
// finishes computing. Emit calls are serialized; the callback must not
// re-enter the engine.
//
// The join and the exact-evaluation workers poll ctx (amortized) and stop
// mid-query when it fires, returning a typed *ctxutil.CanceledError that
// wraps the context error and carries the exact evaluations completed
// before the stop; only the completed prefix has been emitted, and the
// call returns no answers. An uncanceled run is deterministic, node
// accesses included.
func QueryBatchStreamStatsCtx(ctx context.Context, ds *dataset.Uncertain, qs []geom.Point, alpha float64, opt Options,
	emit func(k int, ids []int)) ([][]int, Stats, error) {

	return queryBatchCore(ctx, ds.Tree(), ds.Len(), qs, opt, sampleStates(ds, qs, alpha, opt),
		func(qIdx, id int, cs []int32) bool {
			bufp := candPool.Get().(*[]*uncertain.Object)
			objs := (*bufp)[:0]
			for _, cid := range cs {
				objs = append(objs, ds.Objects[cid])
			}
			ok := prob.GEq(prob.PrReverseSkyline(ds.Objects[id], qs[qIdx], objs), alpha)
			*bufp = objs[:0]
			candPool.Put(bufp)
			return ok
		},
		emit)
}

// QueryBatchPDFStreamStatsCtx is the continuous-model query with the
// contract of QueryBatchStreamStatsCtx: the same shared join with the pdf
// per-query stream states, one merged quadrature pass over all queries'
// survivors. quadNodes is the per-dimension quadrature resolution (<= 0
// selects the dimension-adapted default, exactly as the naive path does).
func QueryBatchPDFStreamStatsCtx(ctx context.Context, set *causality.PDFSet, qs []geom.Point, alpha float64, quadNodes int, opt Options,
	emit func(k int, ids []int)) ([][]int, Stats, error) {

	return queryBatchCore(ctx, set.Tree(), set.Len(), qs, opt, pdfStates(set, qs, alpha, opt),
		func(qIdx, id int, cs []int32) bool {
			bufp := pdfCandPool.Get().(*[]*uncertain.PDFObject)
			objs := (*bufp)[:0]
			for _, cid := range cs {
				objs = append(objs, set.Objects[cid])
			}
			ok := prob.GEq(prob.PrReverseSkylinePDF(set.Objects[id], qs[qIdx], objs, quadNodes), alpha)
			*bufp = objs[:0]
			pdfCandPool.Put(bufp)
			return ok
		},
		emit)
}
