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
// queries.
type batchState interface {
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

// joined is the outcome of the join stage: per-query verdicts for
// everything the bounds decided, plus the undecided (query, object) band
// with its candidate lists. The exact tier (Eq.-2 evaluation or
// quadrature) and the approximate tier (Monte Carlo estimation) both
// consume it, so the two tiers differ only in how the band is settled.
// Stats.Objects counts object-decisions, n × len(qs).
type joined struct {
	verdicts [][]decision
	stats    Stats
	items    []batchItem
	cands    [][]int32
}

// join runs the join stage: the shared-descent self-join with one fresh
// stream state per (worker, query) from newState, traced as prsq.join.
// Under Options.StageBudget the join runs on its slice of the deadline
// (see Options.joinSlice). A canceled join returns the typed cancellation
// error together with a joined carrying only Stats.Objects.
func join(ctx context.Context, tree *rtree.Tree, n int, qs []geom.Point, opt Options,
	newState func(k int) batchState) (*joined, error) {

	nQ := len(qs)
	j := &joined{verdicts: make([][]decision, nQ), stats: Stats{Objects: n * nQ}}
	windows := make([]rtree.WindowFunc, nQ)
	for k := range qs {
		j.verdicts[k] = make([]decision, n)
		q := qs[k]
		windows[k] = func(r geom.Rect) geom.Rect { return geom.DomRectUnionOuter(r, q) }
	}

	// Verdict slots are disjoint per left object, so the join workers
	// never write the same element.
	var mu sync.Mutex
	var workerStates [][]batchState
	joinCtx, endSlice := opt.joinSlice(ctx)
	defer endSlice()
	endJoin := obs.FromContext(ctx).StartSpan("prsq.join")
	err := tree.JoinSelfStreamBatch(joinCtx, windows, opt.workers(n), func() rtree.BatchStreamVisitor {
		states := make([]batchState, nQ)
		for k := range states {
			states[k] = newState(k)
		}
		mu.Lock()
		workerStates = append(workerStates, states)
		mu.Unlock()
		return rtree.BatchStreamVisitor{
			Begin: func(k, id int, r geom.Rect) bool { return states[k].begin(id, r) },
			Pair:  func(k, leftID, rightID int, rr geom.Rect) bool { return states[k].pair(leftID, rightID, rr) },
			End:   func(k, id int) { j.verdicts[k][id] = states[k].finish(id) },
		}
	})
	endJoin()
	if err != nil {
		return j, wrapCanceled(err, 0)
	}
	for _, states := range workerStates {
		for k, st := range states {
			s, ids, cs := st.harvest()
			j.stats.add(s)
			for i, id := range ids {
				j.items = append(j.items, batchItem{q: k, id: id})
				j.cands = append(j.cands, cs[i])
			}
		}
	}
	return j, nil
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

// queryBatchCore runs the join stage and then the merged exact stage,
// traced as prsq.exact — the one copy of the query orchestration, with the
// model plugged in through newState (fresh per-query stream state for a
// join worker) and isAnswer (the exact evaluation of one undecided
// (query, object) pair). A non-nil emit observes every query's final
// answer slice in ascending query order, each exactly once, as soon as it
// is final — on a mid-batch cancellation only the completed prefix has
// been emitted, and the error return carries no answers.
func queryBatchCore(ctx context.Context, tree *rtree.Tree, n int, qs []geom.Point, opt Options,
	newState func(k int) batchState,
	isAnswer func(qIdx, id int, cands []int32) bool,
	emit func(k int, ids []int)) ([][]int, Stats, error) {

	nQ := len(qs)
	if nQ == 0 {
		return [][]int{}, Stats{}, nil
	}
	j, err := join(ctx, tree, n, qs, opt, newState)
	if err != nil {
		return nil, j.stats, err
	}

	em := &batchEmitter{emit: emit, pending: make([]int, nQ), verdicts: j.verdicts, out: make([][]int, nQ)}
	for _, it := range j.items {
		em.pending[it.q]++
	}
	// Queries the join fully decided owe no exact work: flush them now so a
	// batch whose first queries have empty undecided bands streams
	// immediately, before the merged exact stage even starts.
	em.mu.Lock()
	em.flushLocked()
	em.mu.Unlock()

	tr := obs.FromContext(ctx)
	endExact := tr.StartSpan("prsq.exact")
	evaluated, err := evaluate(ctx, j.cands, opt,
		func(k int) bool { return isAnswer(j.items[k].q, j.items[k].id, j.cands[k]) },
		func(k int, d decision) {
			j.verdicts[j.items[k].q][j.items[k].id] = d
			em.settle(j.items[k].q)
		})
	endExact()
	if err != nil {
		return nil, j.stats, wrapCanceled(err, evaluated)
	}
	j.stats.Evaluated = len(j.items)
	j.stats.addToTrace(tr)
	return em.out, j.stats, nil
}

// sampleStates is the sample model's per-query stream-state factory.
func sampleStates(ds *dataset.Uncertain, qs []geom.Point, alpha float64, opt Options) func(k int) batchState {
	wsum := ds.WeightSums()
	var sums []dataset.Summary
	if !opt.NoBounds && !opt.NoTier2 {
		sums = ds.Summaries()
	}
	return func(k int) batchState {
		return &streamState{ds: ds, q: qs[k], alpha: alpha, opt: opt, wsum: wsum, sums: sums}
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
