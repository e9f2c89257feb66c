package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Trace records the stage-level anatomy of one request: wall-time spans
// (join, exact evaluation, repair seeding, branch-and-bound search, pool
// wait, …), effort counters (node accesses, candidate pairs, subsets
// examined, …), and string labels (cache disposition, …). It is
// carried through the engine layers via context; every recording method is
// safe on a nil receiver, so untraced requests pay only a context lookup
// at stage boundaries — never per-item work.
//
// Traces are concurrency-safe, so a library caller may record into one
// trace from several goroutines (concurrent explanations under one traced
// context, say). crskyd records each request's trace on its handler
// goroutine.
type Trace struct {
	start time.Time

	mu       sync.Mutex
	spans    []Span
	counters map[string]int64
	labels   map[string]string
}

// Span is one completed stage with offsets relative to the trace start.
type Span struct {
	Name  string
	Start time.Duration
	Dur   time.Duration
}

// New creates a Trace anchored at the current time.
func New() *Trace {
	return &Trace{start: time.Now()}
}

type traceKey struct{}

// WithTrace returns a context carrying tr.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, tr)
}

// FromContext returns the trace carried by ctx, or nil. All Trace methods
// are nil-safe, so callers never need to branch on the result.
func FromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// StartSpan opens a named span and returns its closer. The usual shape is
//
//	defer tr.StartSpan("prsq.join")()
//
// or an explicit end() call between stages. Calling the closer more than
// once records the span more than once; don't.
func (t *Trace) StartSpan(name string) func() {
	if t == nil {
		return func() {}
	}
	begin := time.Since(t.start)
	return func() {
		end := time.Since(t.start)
		t.mu.Lock()
		t.spans = append(t.spans, Span{Name: name, Start: begin, Dur: end - begin})
		t.mu.Unlock()
	}
}

// Add accumulates v into the named counter.
func (t *Trace) Add(name string, v int64) {
	if t == nil || v == 0 {
		return
	}
	t.mu.Lock()
	if t.counters == nil {
		t.counters = make(map[string]int64, 8)
	}
	t.counters[name] += v
	t.mu.Unlock()
}

// SetLabel records a string annotation (last write wins).
func (t *Trace) SetLabel(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.labels == nil {
		t.labels = make(map[string]string, 4)
	}
	t.labels[key] = value
	t.mu.Unlock()
}

// SpanJSON is the wire form of a completed span: millisecond offsets from
// the request start.
type SpanJSON struct {
	Name    string  `json:"name"`
	StartMs float64 `json:"startMs"`
	DurMs   float64 `json:"durMs"`
}

// TraceJSON is the wire form of a trace, attached to responses under
// ?trace=1 and embedded in slow-query log lines.
type TraceJSON struct {
	// WallMs is the elapsed wall time from trace creation to snapshot.
	WallMs float64 `json:"wallMs"`
	// Spans lists completed stages in start order. A stage that runs
	// once per item (each explain item's filter and search) records one
	// span per item; spans recorded from concurrent goroutines overlap, and
	// their durations sum to CPU-ish stage time, not wall time.
	Spans []SpanJSON `json:"spans,omitempty"`
	// Counters carries the effort metrics recorded by the engine layers.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Labels carries string annotations (cache disposition, …).
	Labels map[string]string `json:"labels,omitempty"`
}

// Snapshot renders the trace for a response or log line. The trace remains
// usable afterwards; snapshots are deep copies.
func (t *Trace) Snapshot() *TraceJSON {
	if t == nil {
		return nil
	}
	wall := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	out := &TraceJSON{WallMs: MsRound(wall.Seconds())}
	if len(t.spans) > 0 {
		spans := append([]Span(nil), t.spans...)
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		out.Spans = make([]SpanJSON, len(spans))
		for i, sp := range spans {
			out.Spans[i] = SpanJSON{
				Name:    sp.Name,
				StartMs: MsRound(sp.Start.Seconds()),
				DurMs:   MsRound(sp.Dur.Seconds()),
			}
		}
	}
	if len(t.counters) > 0 {
		out.Counters = make(map[string]int64, len(t.counters))
		for k, v := range t.counters {
			out.Counters[k] = v
		}
	}
	if len(t.labels) > 0 {
		out.Labels = make(map[string]string, len(t.labels))
		for k, v := range t.labels {
			out.Labels[k] = v
		}
	}
	return out
}

// Spans returns a copy of the completed spans (test hook).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Counter returns the current value of a named counter (test hook).
func (t *Trace) Counter(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}
