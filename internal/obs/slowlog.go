package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SlowLog is a structured slow-query log: requests whose wall time exceeds
// the threshold are appended to the writer as single JSON lines, trace
// included, so tail latency is explainable after the fact (which stage
// burned the time, how many subsets the search examined, whether the cache
// answered). A nil *SlowLog is a no-op, so the server wires it
// unconditionally.
type SlowLog struct {
	w         io.Writer
	threshold time.Duration

	mu      sync.Mutex
	written atomic.Int64
	errors  atomic.Int64
}

// NewSlowLog creates a slow log writing entries above threshold to w. It
// returns nil — the disabled log — when w is nil or threshold <= 0.
func NewSlowLog(w io.Writer, threshold time.Duration) *SlowLog {
	if w == nil || threshold <= 0 {
		return nil
	}
	return &SlowLog{w: w, threshold: threshold}
}

// Threshold returns the configured slow threshold (0 when disabled).
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// SlowEntry is one slow-query log line.
type SlowEntry struct {
	Time    string     `json:"ts"`
	Route   string     `json:"route"`
	Dataset string     `json:"dataset,omitempty"`
	Model   string     `json:"model,omitempty"`
	Outcome string     `json:"outcome"`
	Status  int        `json:"status"`
	DurMs   float64    `json:"durMs"`
	Trace   *TraceJSON `json:"trace,omitempty"`
}

// Record writes entry if dur exceeds the threshold. The timestamp and
// duration fields are filled in here; writes are serialized so concurrent
// slow requests never interleave bytes within a line.
func (l *SlowLog) Record(dur time.Duration, entry SlowEntry) {
	if l == nil || dur < l.threshold {
		return
	}
	entry.Time = time.Now().UTC().Format(time.RFC3339Nano)
	entry.DurMs = MsRound(dur.Seconds())
	line, err := json.Marshal(entry)
	if err != nil {
		l.errors.Add(1)
		return
	}
	line = append(line, '\n')
	l.mu.Lock()
	_, werr := l.w.Write(line)
	l.mu.Unlock()
	if werr != nil {
		l.errors.Add(1)
		return
	}
	l.written.Add(1)
}

// Written returns the number of entries successfully written.
func (l *SlowLog) Written() int64 {
	if l == nil {
		return 0
	}
	return l.written.Load()
}

// Errors returns the number of entries dropped by marshal/write failures.
func (l *SlowLog) Errors() int64 {
	if l == nil {
		return 0
	}
	return l.errors.Load()
}
