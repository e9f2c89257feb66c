package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	crsky "github.com/crsky/crsky"
	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prob"
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
	ent, q, alpha, status, err := s.resolve(req.Dataset, req.Q, req.Alpha, req.QuadNodes)
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
	ctx, cancel, err := requestTimeout(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()

	// Register BEFORE the initial evaluation so no mutation can slip into
	// the gap unobserved: a flip committed while the baseline evaluation
	// runs is re-evaluated by the scheduler and waits in the buffer.
	sub := s.watch.Register(ent.name, q, req.An, alpha, req.QuadNodes, win, hasWin, req.Repair)
	defer s.watch.Unregister(sub)

	// Baseline: the watched object must currently be a non-answer.
	var answer bool
	var repair []int
	err = s.admitted(ctx, priorityFrom(r, classExplain), func(ctx context.Context) error {
		pr, st, err := ent.eng.ProbCtx(ctx, req.An, q, crsky.QueryOptions{QuadNodes: req.QuadNodes})
		ent.accesses.Add(st.NodeAccesses)
		if err != nil {
			return err
		}
		if answer = prob.GEq(pr, alpha); answer || !req.Repair {
			return nil
		}
		rep, err := ent.eng.RepairCtx(ctx, req.An, q, alpha, causality.Options{QuadNodes: req.QuadNodes})
		ent.addRepair(rep)
		if err != nil {
			return err
		}
		repair = rep.Removed
		return nil
	})
	if err != nil {
		s.writeComputeError(w, err)
		return
	}
	if answer {
		s.writeError(w, http.StatusUnprocessableEntity,
			fmt.Errorf("%w: object %d is in the answer set; watch wants a non-answer", causality.ErrNotNonAnswer, req.An))
		return
	}
	if req.Repair {
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
		case <-ctx.Done():
			return
		case <-s.drainCtx.Done():
			return
		}
	}
}

// reevalWatch is the Reevaluator the hub calls after committed mutations:
// re-check the affected subscriptions against the CURRENT engine
// generation, one ProbCtx membership probe per subscription, all in one
// pool slot. A subscription whose object that generation has already
// tombstoned gets nothing here: the pending notice of the delete emits its
// "deleted". Each tracked repair takes a pool slot of its own.
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
	ctx, cancel := context.WithTimeout(s.drainCtx, reevalTimeout)
	defer cancel()
	var flipped, blocked []*watch.Sub
	_, err := s.pool.Do(ctx, func() (any, error) {
		for _, sub := range subs {
			pr, st, err := ent.eng.ProbCtx(ctx, sub.An, sub.Q, crsky.QueryOptions{QuadNodes: sub.QuadNodes})
			ent.accesses.Add(st.NodeAccesses)
			switch {
			case ctx.Err() != nil:
				return nil, ctx.Err()
			case err != nil:
				// A tombstoned object (see above); any other failure
				// leaves the subscription to the next round.
			case prob.GEq(pr, sub.Alpha):
				flipped = append(flipped, sub)
			case sub.TrackRepair:
				blocked = append(blocked, sub)
			}
		}
		return nil, nil
	})
	if err != nil {
		// Overload or drain: this round is lost, the next committed
		// mutation schedules another. Watchers stay subscribed.
		return
	}
	for _, sub := range flipped {
		s.watch.Emit(sub, watch.Event{
			Event:      watch.KindFlipped,
			Dataset:    name,
			Generation: ent.gen,
			An:         sub.An,
			Answer:     true,
		})
	}
	for _, sub := range blocked {
		rv, err := s.pool.Do(ctx, func() (any, error) {
			rep, err := ent.eng.RepairCtx(ctx, sub.An, sub.Q, sub.Alpha, causality.Options{QuadNodes: sub.QuadNodes})
			ent.addRepair(rep)
			return rep, err
		})
		if err != nil {
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
}
