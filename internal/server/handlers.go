package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/uncertain"
)

// --- dataset endpoints ------------------------------------------------

func (s *Server) handleDatasetRegister(w http.ResponseWriter, r *http.Request) {
	var req DatasetRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		s.writeDecodeError(w, err)
		return
	}
	ent, err := s.reg.register(&req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	// A wholesale replacement invalidates every watcher's object IDs.
	s.watch.DatasetReset(ent.name, ent.gen)
	writeJSON(w, http.StatusCreated, ent.info())
}

func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.list())
}

func (s *Server) handleDatasetGet(w http.ResponseWriter, r *http.Request) {
	ent, ok := s.reg.get(r.PathValue("name"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown dataset %q", r.PathValue("name")))
		return
	}
	writeJSON(w, http.StatusOK, ent.info())
}

func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	ok, err := s.reg.remove(r.PathValue("name"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("unknown dataset %q", r.PathValue("name")))
		return
	}
	s.watch.DatasetReset(r.PathValue("name"), 0)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- compute endpoints ------------------------------------------------

// resolve validates the (dataset, q, alpha, quadNodes) fields shared by all
// compute requests. For certain data, alpha is forced to 1 (membership is
// exact); for the probabilistic models it must lie in (0, 1].
func (s *Server) resolve(name string, qs []float64, alpha float64, quadNodes int) (*entry, geom.Point, float64, int, error) {
	if name == "" {
		return nil, nil, 0, http.StatusBadRequest, fmt.Errorf("dataset is required")
	}
	ent, ok := s.reg.get(name)
	if !ok {
		return nil, nil, 0, http.StatusNotFound, fmt.Errorf("unknown dataset %q", name)
	}
	q := geom.Point(qs)
	if q.Dims() != ent.dims {
		return nil, nil, 0, http.StatusBadRequest,
			fmt.Errorf("q has %d dims, dataset %q has %d", q.Dims(), name, ent.dims)
	}
	if !q.IsFinite() {
		return nil, nil, 0, http.StatusBadRequest, fmt.Errorf("q has non-finite coordinates")
	}
	if ent.model == ModelCertain {
		alpha = 1
	} else if !(alpha > 0 && alpha <= 1) {
		return nil, nil, 0, http.StatusBadRequest,
			fmt.Errorf("alpha must be in (0,1], got %g", alpha)
	}
	if err := checkQuadNodes(quadNodes, ent.dims); err != nil {
		return nil, nil, 0, http.StatusBadRequest, err
	}
	return ent, q, alpha, 0, nil
}

// checkQuadNodes is the pdf engine's own resolution check, run at request
// admission so an oversized quadNodes answers 400 before it takes a pool
// slot, whatever the dataset's model.
var checkQuadNodes = uncertain.CheckQuadNodes

// queryKey is the canonical cache key of one (dataset, query, alpha,
// quadNodes) reverse-skyline computation. /v1/query and /v2/query build
// the SAME per-item keys, so either surface serves results the other
// computed: a batch warms later single queries and a warmed single query
// is one less item a batch must compute.
func queryKey(name string, gen uint64, q geom.Point, alpha float64, quadNodes int) string {
	return fmt.Sprintf("query|%s|%d|%s|%g|%d", name, gen, pointKey(q), alpha, quadNodes)
}

// explainKey is queryKey's causality counterpart, shared by /v1/explain
// and /v2/explain's per-item cache. Verification is deliberately not part
// of the key: both surfaces re-run the verifier per request on whatever
// they serve, so verified and unverified requests share one entry.
func explainKey(name string, gen uint64, q geom.Point, an int, alpha float64, opts causality.Options) string {
	return fmt.Sprintf("explain|%s|%d|%s|%d|%g|%s", name, gen, pointKey(q), an, alpha, opts.Key())
}

// writeComputeError renders a compute-path failure: cancellations and
// admission sheds become 503s with the COMPUTED Retry-After (queue depth ×
// recent median slot wait, capped — see retryAfter), integrity failures
// and recovered explain-item panics 500s, engine errors their mapped
// client status. Any other panic unwinds to the instrument middleware,
// which answers 500.
func (s *Server) writeComputeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errShed),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", s.retryAfter())
		s.writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, errVerificationFailed), errors.Is(err, errItemPanicked):
		s.writeError(w, http.StatusInternalServerError, err)
	default:
		s.writeError(w, statusFor(err), err)
	}
}

// requestTimeout derives the compute context from ?timeout= (a Go
// duration, e.g. 250ms or 2s): a deadline on top of the client-disconnect
// cancellation the request context already carries.
func requestTimeout(r *http.Request) (context.Context, context.CancelFunc, error) {
	t := r.URL.Query().Get("timeout")
	if t == "" {
		return r.Context(), func() {}, nil
	}
	d, err := time.ParseDuration(t)
	if err != nil || d <= 0 {
		return nil, nil, fmt.Errorf("bad timeout %q (want a positive Go duration, e.g. 250ms)", t)
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// --- /v1: request/response adapters over the compute path ---------------
//
// A /v1 request is a batch of one: the handlers decode and resolve the
// request and hand it to the same core as /v2, with a writer that renders
// the single item as the v1 JSON envelope.

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.reqQuery.Inc()
	var req QueryRequest
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
	s.serveQuery(w, r, &queryCall{
		ent:       ent,
		qs:        []geom.Point{q},
		keys:      []string{queryKey(ent.name, ent.gen, q, alpha, req.QuadNodes)},
		alpha:     alpha,
		quadNodes: req.QuadNodes,
		noCache:   req.NoCache,
		class:     priorityFrom(r, classQuery),
	}, &envelopeItem{s: s, w: w, envelope: func(it item) any {
		return QueryResponse{
			Dataset:    ent.name,
			Model:      ent.model,
			Alpha:      alpha,
			Count:      len(it.ids),
			Answers:    it.ids,
			Generation: ent.gen,
			Trace:      traceJSON(r),
		}
	}})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	s.reqExplain.Inc()
	var req ExplainRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		s.writeDecodeError(w, err)
		return
	}
	ent, q, alpha, status, err := s.resolve(req.Dataset, req.Q, req.Alpha, req.Options.QuadNodes)
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	annotate(r.Context(), ent)
	opts := req.Options.toOptions()
	if ent.model == ModelCertain {
		// Algorithm CR takes no options (Lemma 7 needs no refinement);
		// canonicalize so identical certain requests share a cache key.
		opts = causality.Options{}
	}
	s.serveExplain(w, r, &explainCall{
		ent:     ent,
		ans:     []int{req.An},
		qs:      []geom.Point{q},
		keys:    []string{explainKey(ent.name, ent.gen, q, req.An, alpha, opts)},
		alpha:   alpha,
		opts:    opts,
		verify:  req.Verify,
		noCache: req.NoCache,
		class:   priorityFrom(r, classExplain),
	}, &envelopeItem{s: s, w: w, envelope: func(it item) any {
		resp := explainResponse(ent, alpha, it.exp, req.Verify)
		resp.Trace = traceJSON(r)
		return resp
	}})
}

// handleRepair has no batch form: it takes the cache and a pool slot
// through the same helpers as the explain core.
func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	s.reqRepair.Inc()
	var req RepairRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		s.writeDecodeError(w, err)
		return
	}
	ent, q, alpha, status, err := s.resolve(req.Dataset, req.Q, req.Alpha, req.Options.QuadNodes)
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	annotate(r.Context(), ent)
	opts := req.Options.toOptions()
	ctx, cancel, err := requestTimeout(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	key := fmt.Sprintf("repair|%s|%d|%s|%d|%g|%s",
		ent.name, ent.gen, pointKey(q), req.An, alpha, opts.Key())
	hits, missing := s.cached(w, ctx, []string{key}, req.NoCache)
	rep, _ := hits[0].(*causality.Repair)
	if len(missing) > 0 {
		err := s.admitted(ctx, priorityFrom(r, classExplain), func(ctx context.Context) (err error) {
			rep, err = ent.eng.RepairCtx(ctx, req.An, q, alpha, opts)
			ent.addRepair(rep)
			return err
		})
		if err != nil {
			s.writeComputeError(w, err)
			return
		}
		if !req.NoCache {
			s.cache.Put(key, rep)
		}
	}
	writeJSON(w, http.StatusOK, RepairResponse{
		Dataset: ent.name,
		Model:   ent.model,
		An:      req.An,
		Alpha:   alpha,
		Removed: rep.Removed,
		NewPr:   rep.NewPr,
		Exact:   rep.Exact,
		Trace:   traceJSON(r),
	})
}
