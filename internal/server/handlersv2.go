package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/crsky/crsky/internal/geom"
)

// errVerificationFailed marks a server-side integrity failure — the
// engine produced an explanation the independent Definition-1 verifier
// rejected — which must surface as a 500, never a client error.
var errVerificationFailed = errors.New("explanation failed verification")

// errItemPanicked marks an explain item whose computation panicked. The
// panic is recovered on the item, so it fails alone as a server error.
var errItemPanicked = errors.New("internal error: panic while explaining")

// resolveBatch validates the shared (dataset, alpha, quadNodes) fields and
// every query point of a batch request, mirroring resolve.
func (s *Server) resolveBatch(name string, qss [][]float64, alpha float64, quadNodes int) (*entry, []geom.Point, float64, int, error) {
	if len(qss) == 0 {
		return nil, nil, 0, http.StatusBadRequest, fmt.Errorf("at least one query point is required")
	}
	ent, _, alpha, status, err := s.resolve(name, qss[0], alpha, quadNodes)
	if err != nil {
		return nil, nil, 0, status, err
	}
	qs := make([]geom.Point, len(qss))
	for i, raw := range qss {
		q := geom.Point(raw)
		if q.Dims() != ent.dims {
			return nil, nil, 0, http.StatusBadRequest,
				fmt.Errorf("q #%d has %d dims, dataset %q has %d", i, q.Dims(), name, ent.dims)
		}
		if !q.IsFinite() {
			return nil, nil, 0, http.StatusBadRequest, fmt.Errorf("q #%d has non-finite coordinates", i)
		}
		qs[i] = q
	}
	return ent, qs, alpha, 0, nil
}

// --- NDJSON streaming ---------------------------------------------------

// ndjsonStream writes an NDJSON response one line at a time, flushing the
// connection after every line so each item reaches the client as soon as
// it is final — not when the whole batch is. The 200 status commits
// lazily with the first line, which is why the handlers keep every
// failure that should still become an error status ahead of the first
// write.
type ndjsonStream struct {
	w       http.ResponseWriter
	enc     *json.Encoder
	flusher http.Flusher
	started bool
}

func newNDJSONStream(w http.ResponseWriter) *ndjsonStream {
	f, _ := w.(http.Flusher)
	return &ndjsonStream{w: w, enc: json.NewEncoder(w), flusher: f}
}

// write writes one line, committing the 200 header with the first.
func (st *ndjsonStream) write(line any) {
	if !st.started {
		st.w.Header().Set("Content-Type", "application/x-ndjson")
		st.w.WriteHeader(http.StatusOK)
		st.started = true
	}
	_ = st.enc.Encode(line) // Encode appends the newline separator
	if st.flusher != nil {
		st.flusher.Flush()
	}
}

// ndjsonFrontier is the /v2 itemWriter: it turns out-of-order item
// completions (cached hits first, then computed items) into
// request-ordered NDJSON lines, flushing the longest ready prefix on every
// put. Puts and finish run on the handler goroutine; the mutex keeps the
// writer safe for a caller that puts from another goroutine.
type ndjsonFrontier struct {
	s    *Server
	r    *http.Request
	line func(i int, it item) any // renders item i as its NDJSON line

	mu    sync.Mutex
	st    *ndjsonStream
	lines []any
	next  int
}

func newNDJSONFrontier(s *Server, w http.ResponseWriter, r *http.Request, n int, line func(int, item) any) *ndjsonFrontier {
	return &ndjsonFrontier{s: s, r: r, line: line, st: newNDJSONStream(w), lines: make([]any, n)}
}

func (f *ndjsonFrontier) put(i int, it item) {
	line := f.line(i, it)
	f.mu.Lock()
	f.lines[i] = line
	for f.next < len(f.lines) && f.lines[f.next] != nil {
		f.st.write(f.lines[f.next])
		f.next++
	}
	f.mu.Unlock()
}

// finish completes the stream. A failure before the first line keeps its
// error status. After it, the 200 is committed: lines that finished but
// were blocked behind the failure still flush as results, and every other
// remaining item gets a per-item error line instead of a silently
// truncated stream. Clients that asked for ?trace=1 get the trace as a
// final line; the others keep exactly one line per item.
func (f *ndjsonFrontier) finish(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err != nil {
		if !f.st.started {
			f.s.writeComputeError(f.st.w, err)
			return
		}
		for ; f.next < len(f.lines); f.next++ {
			line := f.lines[f.next]
			if line == nil {
				line = f.line(f.next, item{err: err})
			}
			f.st.write(line)
		}
	}
	if tj := traceJSON(f.r); tj != nil {
		f.st.write(BatchTraceItem{Trace: tj})
	}
}

// --- /v2: request/response adapters over the compute path ---------------

func (s *Server) handleQueryV2(w http.ResponseWriter, r *http.Request) {
	s.reqQuery.Inc()
	var req BatchQueryRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		s.writeDecodeError(w, err)
		return
	}
	ent, qs, alpha, status, err := s.resolveBatch(req.Dataset, req.Qs, req.Alpha, req.QuadNodes)
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	annotate(r.Context(), ent)
	// Key on the resolved alpha (certain data forces 1), so requests that
	// compute the same thing share the cached results.
	req.Alpha = alpha
	s.serveQuery(w, r, &queryCall{
		ent:       ent,
		qs:        qs,
		keys:      req.itemKeys(ent),
		alpha:     alpha,
		quadNodes: req.QuadNodes,
		noCache:   req.NoCache,
		class:     priorityFrom(r, classBatch),
	}, newNDJSONFrontier(s, w, r, len(qs), func(i int, it item) any {
		if it.err != nil {
			return BatchQueryItem{Index: i, Error: it.err.Error()}
		}
		return BatchQueryItem{Index: i, Count: len(it.ids), Answers: it.ids}
	}))
}

func (s *Server) handleExplainV2(w http.ResponseWriter, r *http.Request) {
	s.reqExplain.Inc()
	var req BatchExplainRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		s.writeDecodeError(w, err)
		return
	}
	if len(req.Items) == 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("at least one item is required"))
		return
	}
	qss := make([][]float64, len(req.Items))
	for i, it := range req.Items {
		qss[i] = it.Q
	}
	ent, qs, alpha, status, err := s.resolveBatch(req.Dataset, qss, req.Alpha, req.Options.QuadNodes)
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	annotate(r.Context(), ent)
	// Canonicalize BEFORE the cache keys are built: the keys encode the
	// resolved alpha and the canonicalized options, so requests that run
	// the same computation share entries. Algorithm CR takes no options
	// (Lemma 7 needs no refinement), hence the certain-model options
	// collapse to the zero value.
	req.Alpha = alpha
	if ent.model == ModelCertain {
		req.Options = OptionsSpec{}
	}
	var itemTimeout time.Duration
	if req.ItemTimeout != "" {
		itemTimeout, err = time.ParseDuration(req.ItemTimeout)
		if err != nil || itemTimeout <= 0 {
			s.writeError(w, http.StatusBadRequest,
				fmt.Errorf("bad itemTimeout %q (want a positive Go duration, e.g. 250ms)", req.ItemTimeout))
			return
		}
	}
	ans := make([]int, len(req.Items))
	for i, it := range req.Items {
		ans[i] = it.An
	}
	s.serveExplain(w, r, &explainCall{
		ent:         ent,
		ans:         ans,
		qs:          qs,
		keys:        req.itemKeys(ent),
		alpha:       alpha,
		itemTimeout: itemTimeout,
		opts:        req.Options.toOptions(),
		verify:      req.Verify,
		noCache:     req.NoCache,
		class:       priorityFrom(r, classExplain),
	}, newNDJSONFrontier(s, w, r, len(ans), func(i int, it item) any {
		if it.err != nil {
			return BatchExplainItem{Index: i, Error: it.err.Error()}
		}
		resp := explainResponse(ent, alpha, it.exp, req.Verify)
		return BatchExplainItem{Index: i, Explain: &resp}
	}))
}
