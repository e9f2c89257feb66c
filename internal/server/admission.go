package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/crsky/crsky/internal/stats"
)

// This file is the admission controller: the reflex in front of the worker
// pool that turns saturation into fast, honest rejections instead of
// unbounded queueing. It watches the two signals the pool already measures
// — queue depth and the pool-wait histogram — and sheds by priority class:
//
//	batch (v2 endpoints)  <  explain/repair  <  query
//
// A shed response is a 503 with a computed Retry-After (queue depth × the
// recent median slot wait, rounded up and capped), so well-behaved clients
// back off for about as long as the queue actually needs to drain. Cache
// hits are served before admission runs — a saturated pool never blocks
// answers the server already has.

// errShed marks an admission-control rejection; it maps to a 503 carrying
// the computed Retry-After.
var errShed = errors.New("server overloaded: request shed by admission control")

// priorityClass orders request importance for shedding: lower classes shed
// first. Defaults per endpoint are batch for /v2/*, explain for
// /v1/explain and /v1/repair, query for /v1/query; clients may override
// with the X-Crsky-Priority header.
type priorityClass int

const (
	classBatch priorityClass = iota
	classExplain
	classQuery
)

func (c priorityClass) String() string {
	switch c {
	case classBatch:
		return "batch"
	case classExplain:
		return "explain"
	default:
		return "query"
	}
}

// headerPriority lets a client re-class a request (e.g. an interactive
// explain marked "query" to survive shedding longer, or a bulk query
// marked "batch" to yield first).
const headerPriority = "X-Crsky-Priority"

// priorityFrom resolves a request's class: the header when valid, the
// endpoint default otherwise.
func priorityFrom(r *http.Request, def priorityClass) priorityClass {
	switch strings.ToLower(r.Header.Get(headerPriority)) {
	case "batch":
		return classBatch
	case "explain":
		return classExplain
	case "query":
		return classQuery
	}
	return def
}

// queueCap is the class's admission threshold on the worker pool's queue
// depth: batch yields at a quarter of the queue budget, explain at half,
// query at the full budget.
func (s *Server) queueCap(class priorityClass) int64 {
	mq := int64(s.cfg.MaxQueue)
	var c int64
	switch class {
	case classBatch:
		c = mq / 4
	case classExplain:
		c = mq / 2
	default:
		c = mq
	}
	if c < 1 {
		c = 1
	}
	return c
}

// estWait estimates how long a new arrival would wait for a worker-pool
// slot: current queue depth × the recent median slot wait. Zero when the
// queue is empty or no waits have been observed yet.
func (s *Server) estWait() time.Duration {
	depth := s.pool.queued.Value()
	if depth <= 0 {
		return 0
	}
	p50 := s.pool.wait.Snapshot().P50() // seconds
	if p50 <= 0 {
		return 0
	}
	return time.Duration(float64(depth) * p50 * float64(time.Second))
}

// retryAfter renders the Retry-After header value from the estimated queue
// wait: whole seconds, rounded up, clamped to [1, 30] so a pathological
// histogram can neither tell clients "0" nor park them for minutes.
func (s *Server) retryAfter() string {
	secs := int(math.Ceil(s.estWait().Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return strconv.Itoa(secs)
}

// admit decides whether a compute request may queue for the worker pool.
// remaining is the request's remaining deadline budget (0 = unbounded).
// The three rejection reasons, in order:
//
//  1. the server is draining — no new compute work starts;
//  2. the class's queue-depth threshold is exceeded;
//  3. the request has a deadline the estimated queue wait already blows —
//     queueing it would burn a slot computing an answer nobody will
//     receive.
func (s *Server) admit(class priorityClass, remaining time.Duration) error {
	if s.draining.Load() {
		s.shedFor(class).Inc()
		return fmt.Errorf("%w: server is draining", errShed)
	}
	depth := s.pool.queued.Value()
	if cap := s.queueCap(class); depth >= cap {
		s.shedFor(class).Inc()
		return fmt.Errorf("%w: %s queue depth %d at class limit %d", errShed, class, depth, cap)
	}
	if remaining > 0 {
		if est := s.estWait(); est > remaining {
			s.shedFor(class).Inc()
			return fmt.Errorf("%w: estimated queue wait %s exceeds remaining deadline %s",
				errShed, est.Round(time.Millisecond), remaining.Round(time.Millisecond))
		}
	}
	return nil
}

// remainingBudget is the deadline budget admit consumes: the time left
// before ctx's deadline (1ns once expired, so admit sheds on any estimate),
// 0 when ctx has none.
func remainingBudget(ctx context.Context) time.Duration {
	if dl, ok := ctx.Deadline(); ok {
		return max(time.Until(dl), time.Nanosecond)
	}
	return 0
}

// BeginDrain moves the server into drain mode: admission rejects all new
// compute work immediately (503 + Retry-After, so load balancers fail
// over), and after grace elapses the drain context cancels every still
// running computation, so Shutdown's deadline is honored instead of
// hostage to a long search. Idempotent; grace <= 0 cancels at once.
func (s *Server) BeginDrain(grace time.Duration) {
	if !s.draining.CompareAndSwap(false, true) {
		return
	}
	if grace <= 0 {
		s.drainCancel()
		return
	}
	time.AfterFunc(grace, s.drainCancel)
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// mergeCancel derives a context that is canceled when either ctx or aux
// fires, keeping ctx's values. The returned stop releases the watcher and
// must always be called.
func mergeCancel(ctx, aux context.Context) (context.Context, context.CancelFunc) {
	if aux == nil || aux.Done() == nil {
		return ctx, func() {}
	}
	m, cancel := context.WithCancel(ctx)
	stop := context.AfterFunc(aux, cancel)
	return m, func() { stop(); cancel() }
}

// shedFor returns the class's shed counter.
func (s *Server) shedFor(class priorityClass) *stats.Counter {
	switch class {
	case classBatch:
		return &s.shedBatch
	case classExplain:
		return &s.shedExplain
	default:
		return &s.shedQuery
	}
}
