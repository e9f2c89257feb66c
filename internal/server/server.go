// Package server implements crskyd, the long-lived explanation service
// over the crsky engines: an HTTP/JSON API for dataset registration,
// (probabilistic) reverse skyline queries, causality/responsibility
// explanations of non-answers, and minimal repairs.
//
// The serving architecture is built for heavy concurrent traffic:
//
//   - a registry of immutable, index-warmed per-dataset engines that any
//     number of requests read concurrently;
//   - a bounded worker pool so expensive Explain refinements (worst-case
//     exponential, Theorem 1) cannot starve the process;
//   - an LRU result cache keyed per item by (dataset, generation, model,
//     q, an, α, options);
//   - one compute path for both API versions: a /v1 request is a batch of
//     one over the /v2 core, computed under the live request context, so
//     a client that disconnects cancels its work and frees its pool slot;
//   - /healthz and /v1/stats surfacing engine node accesses, cache hit
//     rates, and in-flight load.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	crsky "github.com/crsky/crsky"
	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/faultinject"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/obs"
	"github.com/crsky/crsky/internal/stats"
	"github.com/crsky/crsky/internal/store"
	"github.com/crsky/crsky/internal/watch"
)

// headerCache is the cache disposition response header: "hit", "miss", or
// "bypass" (NoCache requests). Keeping it out of the body keeps a cached
// response byte-identical to the computation that seeded it.
const headerCache = "X-Crsky-Cache"

// Config tunes a Server. The zero value selects sensible defaults.
type Config struct {
	// CacheSize is the result-cache capacity in entries (default 1024;
	// negative disables caching).
	CacheSize int
	// Workers bounds concurrently executing compute requests (default
	// GOMAXPROCS). Every computation holds one slot and runs on one core,
	// so Workers also bounds the cores all compute uses.
	Workers int
	// MaxBodyBytes caps request bodies (default 64 MiB).
	MaxBodyBytes int64
	// SlowQueryThreshold enables the structured slow-query log: requests
	// slower than this are written to SlowQueryLog as one JSON line each,
	// stage trace included. Zero disables the log.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives the slow-query lines (required when
	// SlowQueryThreshold > 0; typically os.Stderr or a log file).
	SlowQueryLog io.Writer
	// MaxQueue is the admission controller's queue-depth budget on the
	// worker pool (default Workers × 8; the per-class thresholds are
	// fractions of it — see queueCap). Requests beyond their class's
	// threshold are shed with 503 + Retry-After instead of queueing.
	MaxQueue int
	// Store, when set, makes dataset registrations durable: register and
	// remove write through to the store's WAL, and LoadFromStore rebuilds
	// the recovered datasets at startup. Nil keeps the registry purely
	// in-memory (tests, throwaway servers).
	Store *store.Store
	// Faults installs a fault injector on the worker pool (tests only; nil
	// in production). Injected slot delays simulate slow storage or noisy
	// neighbors.
	Faults *faultinject.Injector
	// WrapEngine, when set, decorates every engine at registration (tests
	// only; faultinject.Wrap is the intended value).
	WrapEngine func(crsky.Explainer) crsky.Explainer
}

func (c *Config) fillDefaults() {
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxQueue <= 0 {
		w := c.Workers
		if w <= 0 {
			w = 1
		}
		c.MaxQueue = w * 8
	}
}

// Server is the crskyd HTTP service. Create with New, expose with
// Handler, and serve with net/http.
type Server struct {
	cfg   Config
	reg   *registry
	cache *lruCache
	pool  *workerPool
	mux   *http.ServeMux
	start time.Time

	// Admission state: draining flips on BeginDrain and makes admission
	// reject everything; drainCtx cancels every running computation when
	// the drain grace expires.
	draining    atomic.Bool
	drainCtx    context.Context
	drainCancel context.CancelFunc

	shedBatch, shedExplain, shedQuery stats.Counter
	panics                            stats.Counter
	uploadRejected                    stats.Counter

	// reqHist is the route × dataset-model × outcome latency histogram
	// family behind /metrics; slow is the structured slow-query log (nil
	// when disabled).
	reqHist *obs.HistogramVec
	slow    *obs.SlowLog

	reqQuery, reqExplain, reqRepair, reqErrors stats.Counter

	// Explanation-work gauges, accumulated per computed (non-cached)
	// explanation inside the worker pool.
	explainSubsets, explainFilterIO, explainComputed stats.Counter

	// watch is the /v2/watch subscription hub; watchReeval is the latency
	// histogram of one post-mutation re-evaluation round.
	watch       *watch.Hub
	watchReeval obs.Histogram

	// mutations counts committed object mutations, keyed "op|model" (the
	// six combinations are pre-seeded in New, so Inc never races a map
	// write).
	mutations map[string]*stats.Counter

	// computeHook, when set, runs inside every pooled computation before
	// the engine call, receiving the context the engine will poll. Tests
	// use it to hold computations open and observe cancellation without
	// racing it.
	computeHook func(context.Context)
}

// New builds a Server with the given configuration.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     newRegistry(cfg.WrapEngine, cfg.Store),
		cache:   newLRUCache(cfg.CacheSize),
		pool:    newWorkerPool(cfg.Workers),
		mux:     http.NewServeMux(),
		start:   time.Now(),
		reqHist: obs.NewHistogramVec("route", "model", "outcome"),
		slow:    obs.NewSlowLog(cfg.SlowQueryLog, cfg.SlowQueryThreshold),
	}
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())
	s.watch = watch.NewHub(s.reevalWatch)
	s.mutations = make(map[string]*stats.Counter)
	for _, op := range []string{store.MutInsert, store.MutDelete} {
		for _, model := range []string{ModelCertain, ModelSample, ModelPDF} {
			s.mutations[op+"|"+model] = &stats.Counter{}
		}
	}
	if cfg.Faults != nil {
		s.pool.slotDelay = cfg.Faults.SlotDelay
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	// Every /v1/* and /v2/* route goes through the instrument middleware:
	// latency histogram (route × model × outcome), optional ?trace=1 stage
	// trace, slow-query log. The route string is fixed at registration
	// because the middleware runs outside the mux's pattern matching.
	s.mux.HandleFunc("GET /v1/stats", s.instrument("/v1/stats", s.handleStats))
	s.mux.HandleFunc("POST /v1/datasets", s.instrument("/v1/datasets", s.handleDatasetRegister))
	s.mux.HandleFunc("GET /v1/datasets", s.instrument("/v1/datasets", s.handleDatasetList))
	s.mux.HandleFunc("GET /v1/datasets/{name}", s.instrument("/v1/datasets/{name}", s.handleDatasetGet))
	s.mux.HandleFunc("DELETE /v1/datasets/{name}", s.instrument("/v1/datasets/{name}", s.handleDatasetDelete))
	s.mux.HandleFunc("POST /v1/query", s.instrument("/v1/query", s.handleQuery))
	s.mux.HandleFunc("POST /v1/explain", s.instrument("/v1/explain", s.handleExplain))
	s.mux.HandleFunc("POST /v1/repair", s.instrument("/v1/repair", s.handleRepair))
	// v2: batch, NDJSON. Both versions run the same compute path (see
	// compute.go) under the live request context: ?timeout= sets a
	// deadline, and a client disconnect releases the pool slot.
	s.mux.HandleFunc("POST /v2/query", s.instrument("/v2/query", s.handleQueryV2))
	s.mux.HandleFunc("POST /v2/explain", s.instrument("/v2/explain", s.handleExplainV2))
	// Dynamic data plane: durable copy-on-write object mutations and the
	// non-answer subscription stream they feed.
	s.mux.HandleFunc("POST /v2/datasets/{name}/objects",
		s.instrument("/v2/datasets/{name}/objects", s.handleObjectInsert))
	s.mux.HandleFunc("DELETE /v2/datasets/{name}/objects/{id}",
		s.instrument("/v2/datasets/{name}/objects/{id}", s.handleObjectDelete))
	s.mux.HandleFunc("POST /v2/watch", s.instrument("/v2/watch", s.handleWatch))
	return s
}

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Register installs a dataset programmatically — the same code path as
// POST /v1/datasets. Used for startup preloads and embedded servers.
func (s *Server) Register(req *DatasetRequest) (DatasetInfo, error) {
	ent, err := s.reg.register(req)
	if err != nil {
		return DatasetInfo{}, err
	}
	s.watch.DatasetReset(ent.name, ent.gen)
	return ent.info(), nil
}

// LoadFromStore rebuilds and installs a warmed engine for every dataset
// the configured store recovered. A payload that passed its checksums but
// fails to decode or build is quarantined (moved to corrupt/, logged out
// of the WAL) and the load continues: the daemon boots degraded on the
// healthy datasets instead of refusing to start. Returns the number of
// datasets installed and the names quarantined.
func (s *Server) LoadFromStore() (loaded int, quarantined []string, err error) {
	if s.cfg.Store == nil {
		return 0, nil, nil
	}
	for _, d := range s.cfg.Store.Datasets() {
		if ierr := s.reg.installStored(d); ierr != nil {
			_ = s.cfg.Store.Quarantine(d.Name, ierr.Error())
			quarantined = append(quarantined, d.Name)
			continue
		}
		loaded++
	}
	return loaded, quarantined, nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		Datasets:      s.reg.count(),
	}
	if st := s.cfg.Store; st != nil {
		ss := st.Stats()
		sh := &StoreHealth{CorruptTotal: ss.CorruptTotal}
		for _, q := range ss.Quarantined {
			sh.Quarantined = append(sh.Quarantined, q.Path)
		}
		if ss.CorruptTotal > 0 {
			// Degraded, not down: the healthy datasets keep serving, but
			// operators must know data was quarantined and run fsck.
			resp.Status = "degraded"
		}
		resp.Store = sh
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var storeStats *store.Stats
	if s.cfg.Store != nil {
		ss := s.cfg.Store.Stats()
		storeStats = &ss
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Store:         storeStats,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Datasets:      s.reg.list(),
		Cache:         s.cache.Stats(),
		Pool:          s.pool.Stats(),
		Admission: AdmissionStats{
			MaxQueue:    s.cfg.MaxQueue,
			EstWaitMs:   obs.MsRound(s.estWait().Seconds()),
			ShedBatch:   s.shedBatch.Value(),
			ShedExplain: s.shedExplain.Value(),
			ShedQuery:   s.shedQuery.Value(),
			Draining:    s.draining.Load(),
		},
		Explain: ExplainStats{
			SubsetsExamined:      s.explainSubsets.Value(),
			FilterNodeAccesses:   s.explainFilterIO.Value(),
			ComputedExplanations: s.explainComputed.Value(),
		},
		Watch: s.watch.Stats(),
		Requests: RequestStats{
			Query:          s.reqQuery.Value(),
			Explain:        s.reqExplain.Value(),
			Repair:         s.reqRepair.Value(),
			Errors:         s.reqErrors.Value(),
			Panics:         s.panics.Value(),
			UploadRejected: s.uploadRejected.Value(),
		},
	})
}

// --- shared plumbing --------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.reqErrors.Inc()
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// decodeJSON parses the request body into v with the configured size cap.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	return dec.Decode(v)
}

// writeDecodeError renders a request-body decode failure: bodies over the
// size cap get the proper 413 (with the limit spelled out, so clients can
// fix their payload instead of guessing) and a rejection counter tick;
// everything else is a plain 400.
func (s *Server) writeDecodeError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		s.uploadRejected.Inc()
		s.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds the %d-byte limit", mbe.Limit))
		return
	}
	s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
}

// statusFor maps engine errors to HTTP statuses: bad references are 404,
// semantic rejections (the object is an answer, budget exhaustion) are
// 422, injected infrastructure faults are 500, everything else is a plain
// 400.
func statusFor(err error) int {
	switch {
	case errors.Is(err, causality.ErrBadObject):
		return http.StatusNotFound
	case errors.Is(err, faultinject.ErrInjected):
		return http.StatusInternalServerError
	case errors.Is(err, causality.ErrNotNonAnswer),
		errors.Is(err, causality.ErrTooManyCandidates),
		errors.Is(err, causality.ErrSubsetBudget):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusBadRequest
	}
}

// pointKey canonically encodes a query point for cache keys.
func pointKey(q geom.Point) string {
	var b strings.Builder
	for i, v := range q {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	}
	return b.String()
}
