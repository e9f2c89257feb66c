package server

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"time"

	"github.com/crsky/crsky/internal/obs"
)

// This file is the request observability middleware: every /v1/* and /v2/*
// handler is wrapped by instrument, which records the request latency into
// the route × dataset-model × outcome histogram family, carries an
// obs.Trace through the request context when the client asked for one
// (?trace=1) or the slow-query log is enabled, and feeds the slow-query
// log. The record path off the traced case is three atomic adds plus one
// map lookup — far under the <1% overhead budget of any compute request.

// reqMeta is the per-request annotation channel between the handlers and
// the middleware: the handler resolves the dataset and stores its identity
// here, the middleware reads it after the handler returns to label the
// histogram and the slow-log entry. All writes happen on the handler
// goroutine before the middleware reads, so no locking is needed.
type reqMeta struct {
	dataset   string
	model     string
	wantTrace bool
	trace     *obs.Trace
}

type metaKey struct{}

// metaFrom returns the request's annotation record, or nil outside the
// instrumented mux (direct handler tests).
func metaFrom(ctx context.Context) *reqMeta {
	m, _ := ctx.Value(metaKey{}).(*reqMeta)
	return m
}

// annotate records the resolved dataset on the request's meta. Handlers
// call it right after resolve succeeds.
func annotate(ctx context.Context, ent *entry) {
	if m := metaFrom(ctx); m != nil {
		m.dataset = ent.name
		m.model = ent.model
	}
}

// obsTrace is shorthand for obs.FromContext; the nil-safe Trace methods
// make every call free on untraced requests.
func obsTrace(ctx context.Context) *obs.Trace { return obs.FromContext(ctx) }

// traceJSON snapshots the request trace for a response envelope; nil when
// the request did not ask for one.
func traceJSON(r *http.Request) *obs.TraceJSON {
	if m := metaFrom(r.Context()); m != nil && m.wantTrace {
		return m.trace.Snapshot()
	}
	return nil
}

// wantTrace reports whether the client asked for the stage trace in the
// response body.
func wantTrace(r *http.Request) bool {
	switch r.URL.Query().Get("trace") {
	case "1", "true":
		return true
	}
	return false
}

// statusWriter captures the response status code for outcome labeling.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush passes the streaming capability through: the v2 NDJSON handlers
// flush per line, and losing http.Flusher under this wrapper would silently
// buffer whole batches.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// outcomeFor maps a status code to the bounded outcome label vocabulary —
// bounded so the histogram family's cardinality stays route × model × 4.
func outcomeFor(status int) string {
	switch {
	case status == http.StatusServiceUnavailable:
		return "unavailable"
	case status >= 500:
		return "server_error"
	case status >= 400:
		return "client_error"
	default:
		return "ok"
	}
}

const modelNone = "-" // routes (or failures) with no resolved dataset

// recordPanic counts a recovered panic in requests.panics and logs it with
// the stack of the goroutine that panicked.
func (s *Server) recordPanic(what string, rec any) {
	s.panics.Inc()
	log.Printf("crskyd: panic %s: %v\n%s", what, rec, debug.Stack())
}

// recovering runs fn and converts a handler-goroutine panic into a 500 with
// a counted, stack-logged crash record instead of a torn-down connection.
// A panic in a pooled computation on the handler goroutine unwinds here
// after the pool releases its slot. http.ErrAbortHandler is re-raised: it
// is the sanctioned way to abort a response, not a crash.
func (s *Server) recovering(route string, sw *statusWriter, fn func()) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler {
			panic(rec)
		}
		s.recordPanic("serving "+route, rec)
		if sw.status == 0 {
			s.writeError(sw, http.StatusInternalServerError,
				fmt.Errorf("internal error: panic while serving %s", route))
		}
	}()
	fn()
}

// instrument wraps a handler with the per-request observability pipeline.
// route is the fixed registration pattern (the middleware runs outside the
// mux, so it cannot recover the matched pattern itself).
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m := &reqMeta{model: modelNone, wantTrace: wantTrace(r)}
		ctx := context.WithValue(r.Context(), metaKey{}, m)
		if m.wantTrace || s.slow != nil {
			m.trace = obs.New()
			ctx = obs.WithTrace(ctx, m.trace)
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		s.recovering(route, sw, func() { h(sw, r.WithContext(ctx)) })
		dur := time.Since(start)

		status := sw.status
		if status == 0 {
			status = http.StatusOK // handler wrote nothing (204-style paths call WriteHeader)
		}
		outcome := outcomeFor(status)
		s.reqHist.With(route, m.model, outcome).Observe(dur)
		if s.slow != nil {
			s.slow.Record(dur, obs.SlowEntry{
				Route:   route,
				Dataset: m.dataset,
				Model:   m.model,
				Outcome: outcome,
				Status:  status,
				Trace:   m.trace.Snapshot(),
			})
		}
	}
}
