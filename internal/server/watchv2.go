package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	crsky "github.com/crsky/crsky"
	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/watch"
)

// WatchRequest is the POST /v2/watch body: subscribe to a non-answer.
// The response is an NDJSON stream held open until the watched object
// flips into the answer set (terminal "flipped" event), is deleted
// (terminal "deleted"), or the client disconnects. With Repair set every
// re-evaluation also recomputes the minimal repair and pushes
// "repair_shrunk" whenever it got smaller — strictly more expensive, so
// it is opt-in.
type WatchRequest struct {
	Dataset   string    `json:"dataset"`
	Q         []float64 `json:"q"`
	An        int       `json:"an"`
	Alpha     float64   `json:"alpha,omitempty"`
	QuadNodes int       `json:"quadNodes,omitempty"`
	Repair    bool      `json:"repair,omitempty"`
}

// reevalTimeout bounds one re-evaluation round per dataset; a stuck
// engine must not wedge the watch scheduler forever.
const reevalTimeout = time.Minute

func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	var req WatchRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		s.writeDecodeError(w, err)
		return
	}
	ent, q, alpha, status, err := s.resolve(req.Dataset, req.Q, req.Alpha)
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	annotate(r.Context(), ent)
	if req.An < 0 || req.An >= ent.size {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("%w: %d", causality.ErrBadObject, req.An))
		return
	}
	anMBR, hasWin := objectMBR(ent.eng, req.An)
	if !hasWin {
		switch ent.eng.(type) {
		case *crsky.Engine, *crsky.CertainEngine, *crsky.PDFEngine:
			// A known engine without an MBR means the ID is tombstoned.
			s.writeError(w, http.StatusNotFound, fmt.Errorf("%w: %d (deleted)", causality.ErrBadObject, req.An))
			return
		}
	}
	var win geom.Rect
	if hasWin {
		win = geom.DomRectUnionOuter(anMBR, q)
	}
	ctx, cancel, err := withTimeout(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	if err := s.admit(priorityFrom(r, classExplain), remainingBudget(ctx, 0)); err != nil {
		s.writeComputeError(w, err)
		return
	}
	mctx, undrain := mergeCancel(ctx, s.drainCtx)
	defer undrain()

	// Register BEFORE the initial evaluation so no mutation can slip into
	// the gap unobserved: a flip committed while the baseline evaluation
	// runs is re-evaluated by the scheduler and waits in the buffer.
	sub := s.watch.Register(ent.name, q, req.An, alpha, req.QuadNodes, win, hasWin, req.Repair)
	defer s.watch.Unregister(sub)

	// Baseline: the watched object must currently be a non-answer.
	v, err := s.pool.Do(mctx, func() (any, error) {
		if s.computeHook != nil {
			s.computeHook(mctx)
		}
		ids, qerr := ent.queryCtx(mctx, q, alpha, req.QuadNodes)
		if qerr != nil {
			return nil, qerr
		}
		return containsID(ids, req.An), nil
	})
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	if v.(bool) {
		s.writeError(w, http.StatusUnprocessableEntity,
			fmt.Errorf("%w: object %d is in the answer set; watch wants a non-answer", causality.ErrNotNonAnswer, req.An))
		return
	}
	var repair []int
	if req.Repair {
		rv, rerr := s.pool.Do(mctx, func() (any, error) {
			return ent.repairCtx(mctx, q, req.An, alpha, causality.Options{QuadNodes: req.QuadNodes})
		})
		if rerr != nil {
			s.writeComputeError(w, rerr)
			return
		}
		repair = rv.(*causality.Repair).Removed
		sub.SetRepairBaseline(len(repair))
	}

	st := newNDJSONStream(w)
	st.write(watch.Event{
		Event:      watch.KindRegistered,
		Dataset:    ent.name,
		Generation: ent.gen,
		An:         req.An,
		Repair:     repair,
	})
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				return
			}
			st.write(ev)
		case <-mctx.Done():
			return
		}
	}
}

// reevalWatch is the Reevaluator the hub calls after committed mutations:
// re-check the affected subscriptions against the CURRENT engine
// generation, batching subscriptions that share (alpha, quadNodes)
// through one QueryBatchStream so the index traversal is shared. The hub
// has no fallback tier to protect, so its queries take no StageBudget.
func (s *Server) reevalWatch(name string, gen uint64, subs []*watch.Sub) {
	start := time.Now()
	defer func() { s.watchReeval.Observe(time.Since(start)) }()
	ent, ok := s.reg.get(name)
	if !ok {
		for _, sub := range subs {
			s.watch.Emit(sub, watch.Event{Event: watch.KindDeleted, Dataset: name, Generation: gen, An: sub.An})
		}
		return
	}
	type gkey struct {
		alpha float64
		qn    int
	}
	groups := make(map[gkey][]*watch.Sub)
	for _, sub := range subs {
		k := gkey{sub.Alpha, sub.QuadNodes}
		groups[k] = append(groups[k], sub)
	}
	for k, g := range groups {
		qs := make([]geom.Point, len(g))
		for i, sub := range g {
			qs[i] = sub.Q
		}
		ctx, cancel := context.WithTimeout(s.drainCtx, reevalTimeout)
		v, err := s.pool.Do(ctx, func() (any, error) {
			res, _, qerr := ent.eng.QueryBatchStream(ctx, qs, k.alpha,
				crsky.QueryOptions{QuadNodes: k.qn}, nil)
			return res, qerr
		})
		if err != nil {
			// Overload or drain: this round is lost, the next committed
			// mutation schedules another. Watchers stay subscribed.
			cancel()
			continue
		}
		answers := v.([][]int)
		for i, sub := range g {
			if containsID(answers[i], sub.An) {
				s.watch.Emit(sub, watch.Event{
					Event:      watch.KindFlipped,
					Dataset:    name,
					Generation: ent.gen,
					An:         sub.An,
					Answer:     true,
				})
				continue
			}
			if !sub.TrackRepair {
				continue
			}
			rv, rerr := s.pool.Do(ctx, func() (any, error) {
				return ent.repairCtx(ctx, sub.Q, sub.An, k.alpha, causality.Options{QuadNodes: k.qn})
			})
			if rerr != nil {
				continue
			}
			removed := rv.(*causality.Repair).Removed
			if base := sub.RepairBaseline(); base < 0 || len(removed) < base {
				s.watch.Emit(sub, watch.Event{
					Event:      watch.KindRepairShrunk,
					Dataset:    name,
					Generation: ent.gen,
					An:         sub.An,
					Repair:     removed,
				})
			}
		}
		cancel()
	}
}

func containsID(ids []int, id int) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}
