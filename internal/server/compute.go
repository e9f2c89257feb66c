package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	crsky "github.com/crsky/crsky"
	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/ctxutil"
	"github.com/crsky/crsky/internal/geom"
)

// This file is the one HTTP compute path. /v1/query and /v2/query run
// serveQuery, /v1/explain and /v2/explain run serveExplain: a /v1 request
// is a batch of one. Both cores look items up in the cache (cached), run
// the missing ones on a worker-pool slot (admitted) under the live request
// context, and hand every finished item to an itemWriter, the only part
// that knows the wire format. /v1/repair and the /v2/watch baseline take
// their slot through admitted too.

// item is one finished item of a query or explain request, before any wire
// format: exactly one field is set.
type item struct {
	ids []int             // a query answer
	exp *causality.Result // an explanation
	err error             // a per-item failure
}

// itemWriter renders a request's items in one wire format: /v2 streams
// them as NDJSON lines (ndjsonFrontier), /v1 writes its single item as a
// JSON envelope (envelopeItem). The cores call put once per item, in any
// index order (hits before computed items), then finish once with the
// request-level failure, or nil when every item was put. A query's puts
// come from its emit callback, an explanation's from the loop on the pool
// slot; both run on the handler goroutine.
type itemWriter interface {
	put(i int, it item)
	finish(err error)
}

// envelopeItem holds the single item of a /v1 request and writes it as the
// v1 JSON envelope, or a per-item failure as writeComputeError's status.
type envelopeItem struct {
	s        *Server
	w        http.ResponseWriter
	envelope func(it item) any

	mu   sync.Mutex
	held *item
}

func (e *envelopeItem) put(_ int, it item) {
	e.mu.Lock()
	e.held = &it
	e.mu.Unlock()
}

func (e *envelopeItem) finish(err error) {
	e.mu.Lock()
	it := e.held
	e.mu.Unlock()
	switch {
	case it == nil:
		e.s.writeComputeError(e.w, err)
	case it.err != nil:
		e.s.writeComputeError(e.w, it.err)
	default:
		writeJSON(e.w, http.StatusOK, e.envelope(*it))
	}
}

// cached looks every item key up and labels the request, in the
// X-Crsky-Cache header and the trace: "bypass" when the request opted out
// of the cache, "hit" when every item was cached, "miss" otherwise. It
// returns the cached values (nil where an item must be computed) and the
// indices of the items to compute.
func (s *Server) cached(w http.ResponseWriter, ctx context.Context, keys []string, noCache bool) (hits []any, missing []int) {
	hits = make([]any, len(keys))
	for i, key := range keys {
		var ok bool
		if !noCache {
			hits[i], ok = s.cache.Get(key)
		}
		if !ok {
			missing = append(missing, i)
		}
	}
	label := "miss"
	switch {
	case noCache:
		label = "bypass"
	case len(missing) == 0:
		label = "hit"
	}
	w.Header().Set(headerCache, label)
	obsTrace(ctx).SetLabel("cache", label)
	return hits, missing
}

// admitted runs fn on a worker-pool slot. It admits the request by class
// against ctx's remaining deadline, binds ctx to the server drain, waits
// for a slot, and runs computeHook before fn. fn computes under the live
// request context, so a client that disconnects cancels the work and frees
// the slot.
func (s *Server) admitted(ctx context.Context, class priorityClass, fn func(ctx context.Context) error) error {
	if err := s.admit(class, remainingBudget(ctx)); err != nil {
		obsTrace(ctx).SetLabel("admission", "shed")
		return err
	}
	ctx, undrain := mergeCancel(ctx, s.drainCtx)
	defer undrain()
	_, err := s.pool.Do(ctx, func() (any, error) {
		if s.computeHook != nil {
			s.computeHook(ctx)
		}
		return nil, fn(ctx)
	})
	return err
}

// queryCall is a resolved /v1 or /v2 query request: the points with their
// cache keys (see queryKey), and the delivery directives.
type queryCall struct {
	ent       *entry
	qs        []geom.Point
	keys      []string
	alpha     float64
	quadNodes int
	noCache   bool
	class     priorityClass
}

// serveQuery answers the points of c: cached items from the cache, the
// rest in one shared batch traversal on a worker-pool slot.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, c *queryCall, out itemWriter) {
	ctx, cancel, err := requestTimeout(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()

	hits, missing := s.cached(w, ctx, c.keys, c.noCache)
	putHits := func() {
		for i, v := range hits {
			if v != nil {
				out.put(i, item{ids: v.([]int)})
			}
		}
	}
	if len(missing) == 0 {
		// Hits are served unconditionally: no admission, no pool slot.
		putHits()
		out.finish(nil)
		return
	}
	mqs := make([]geom.Point, len(missing))
	for j, i := range missing {
		mqs[j] = c.qs[i]
	}
	err = s.admitted(ctx, c.class, func(ctx context.Context) error {
		// Put the hits only once the slot is held: until then a shed or a
		// queued cancellation must still be able to become an error status.
		putHits()
		_, st, err := c.ent.eng.QueryBatchStream(ctx, mqs, c.alpha, crsky.QueryOptions{QuadNodes: c.quadNodes}, func(j int, ids []int) {
			if ids == nil {
				ids = []int{}
			}
			i := missing[j]
			if !c.noCache {
				s.cache.Put(c.keys[i], ids)
			}
			out.put(i, item{ids: ids})
		})
		c.ent.accesses.Add(st.NodeAccesses)
		return err
	})
	out.finish(err)
}

// explainCall is a resolved /v1 or /v2 explain request: one non-answer and
// query point per item with its cache key (see explainKey), the shared
// threshold, per-item timeout and canonical options, and the delivery
// directives.
type explainCall struct {
	ent         *entry
	ans         []int
	qs          []geom.Point
	keys        []string
	alpha       float64
	itemTimeout time.Duration // bounds each computed item alone; 0 = none
	opts        causality.Options
	verify      bool
	noCache     bool
	class       priorityClass
}

// serveExplain explains the items of c: cached items from the cache, the
// rest one after another in request order on the pool slot that admitted
// the request, each re-verified when the request asks for it. An item
// fails alone (an answer, too many candidates, its own timeout, an engine
// fault or panic); a request-level cancellation or a verification failure
// stops the loop and fails the items not yet put.
func (s *Server) serveExplain(w http.ResponseWriter, r *http.Request, c *explainCall, out itemWriter) {
	ctx, cancel, err := requestTimeout(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()

	hits, missing := s.cached(w, ctx, c.keys, c.noCache)
	// A verification failure must still become a clean 500, so every hit
	// is verified before the first one is put.
	putHits := func(ctx context.Context) error {
		for i, v := range hits {
			if v != nil {
				if err := s.verified(ctx, c, i, v.(*causality.Result)); err != nil {
					return err
				}
			}
		}
		for i, v := range hits {
			if v != nil {
				out.put(i, item{exp: v.(*causality.Result)})
			}
		}
		return nil
	}
	if len(missing) == 0 {
		// Fully cache-served: no admission, no pool slot.
		out.finish(putHits(ctx))
		return
	}
	err = s.admitted(ctx, c.class, func(ctx context.Context) error {
		// Hits go out as soon as the slot is held; computed items stream in
		// behind them.
		if err := putHits(ctx); err != nil {
			return err
		}
		for _, i := range missing {
			if err := ctxutil.Precheck(ctx); err != nil {
				return err
			}
			res, err := s.explainItem(ctx, c, i)
			if err != nil {
				if ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
					// The request itself is going down (client deadline,
					// disconnect, drain), not this item's own budget: a
					// partially canceled result set must never pass for
					// the full answer.
					return err
				}
				// A per-item failure: the item fails alone and nothing is
				// cached for it.
				out.put(i, item{err: err})
				continue
			}
			c.ent.accesses.Add(res.FilterNodeAccesses)
			if err := s.verified(ctx, c, i, res); err != nil {
				return err
			}
			if !c.noCache {
				s.cache.Put(c.keys[i], res)
			}
			// Work gauges count computed explanations only: cache hits
			// re-serve an already-counted search.
			s.explainComputed.Inc()
			s.explainSubsets.Add(res.SubsetsExamined)
			s.explainFilterIO.Add(res.FilterNodeAccesses)
			out.put(i, item{exp: res})
		}
		return nil
	})
	out.finish(err)
}

// explainItem explains item i under its own timeout, if the request set
// one. A panic fails the item alone: it is counted and logged with its
// stack like a handler panic, and the item reports errItemPanicked.
func (s *Server) explainItem(ctx context.Context, c *explainCall, i int) (res *causality.Result, err error) {
	if c.itemTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.itemTimeout)
		defer cancel()
	}
	defer func() {
		if rec := recover(); rec != nil {
			s.recordPanic(fmt.Sprintf("explaining object %d", c.ans[i]), rec)
			res, err = nil, fmt.Errorf("%w object %d", errItemPanicked, c.ans[i])
		}
	}()
	return c.ent.eng.ExplainCtx(ctx, c.ans[i], c.qs[i], c.alpha, c.opts)
}

// verified re-runs the independent Definition-1 verifier on item i's
// result when the request asked for it — cached results included, so a
// poisoned cache entry can never be re-served verified. A verification
// failure evicts the entry and returns errVerificationFailed; a
// cancellation that interrupts verification stays a plain cancellation
// (503, not an integrity 500).
func (s *Server) verified(ctx context.Context, c *explainCall, i int, res *causality.Result) error {
	if !c.verify {
		return nil
	}
	err := c.ent.eng.VerifyCtx(ctx, c.qs[i], c.alpha, res)
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	s.cache.Remove(c.keys[i])
	return fmt.Errorf("%w: %v", errVerificationFailed, err)
}

// explainResponse renders one explanation, the /v1 envelope and the body
// of a /v2 line alike.
func explainResponse(ent *entry, alpha float64, res *causality.Result, verified bool) ExplainResponse {
	return ExplainResponse{
		Dataset:            ent.name,
		Model:              ent.model,
		NonAnswer:          res.NonAnswer,
		Pr:                 res.Pr,
		Alpha:              alpha,
		Candidates:         res.Candidates,
		Causes:             causesJSON(res.Causes),
		SubsetsExamined:    res.SubsetsExamined,
		FilterNodeAccesses: res.FilterNodeAccesses,
		Verified:           verified,
	}
}
