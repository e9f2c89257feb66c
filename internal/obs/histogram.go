// Package obs is the serving stack's observability substrate: low-overhead
// concurrency-safe latency histograms, context-carried stage traces, a
// Prometheus text-format writer, and a structured slow-query log. It
// deliberately depends on nothing but the standard library so every layer —
// rtree, prsq, causality, server — can record into it without import
// cycles.
//
// Design constraints, in order:
//
//  1. The record path must be cheap enough to run on every request
//     (histograms are three atomic adds; traces are nil-pointer no-ops
//     unless a request opted in).
//  2. Recording must never perturb results: instrumented code paths are
//     bit-identical with tracing on and off, which the conformance harness
//     cross-checks.
//  3. Everything is mergeable and snapshot-consistent enough for
//     monitoring: cumulative bucket counts exported to Prometheus are
//     monotone by construction.
package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of finite histogram buckets. Bucket i covers
// latencies in (bound(i-1), bound(i)] with bound(i) = 1µs·2^i: the finite
// range spans 1µs to ~134s, after which observations land in the implicit
// +Inf overflow bucket. Fixed log-spaced bounds keep Observe allocation-free
// and make every Histogram in the process mergeable with every other.
const NumBuckets = 28

// bucketIndex maps a duration to its bucket: the smallest i with
// ns <= 1000<<i, or NumBuckets for the overflow bucket.
func bucketIndex(d time.Duration) int {
	ns := int64(d)
	if ns <= 1000 {
		return 0
	}
	i := bits.Len64(uint64((ns - 1) / 1000))
	if i >= NumBuckets {
		return NumBuckets
	}
	return i
}

// upperBoundsSeconds holds the finite bucket upper bounds in seconds,
// computed once.
var upperBoundsSeconds = func() [NumBuckets]float64 {
	var b [NumBuckets]float64
	for i := range b {
		b[i] = float64(int64(1000)<<i) / 1e9
	}
	return b
}()

// UpperBounds returns the finite bucket upper bounds in seconds (the
// Prometheus "le" values, excluding +Inf).
func UpperBounds() []float64 {
	out := make([]float64, NumBuckets)
	copy(out, upperBoundsSeconds[:])
	return out
}

// Histogram is a fixed-bucket, log-spaced latency histogram safe for
// concurrent use. Observe is three uncontended-atomic adds (~tens of
// nanoseconds), so it can sit on every request and every pool-slot wait
// without measurable overhead. The zero value is ready to use.
type Histogram struct {
	counts [NumBuckets + 1]atomic.Uint64 // [NumBuckets] = +Inf overflow
	sumNs  atomic.Int64
}

// Observe records one latency. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.counts[bucketIndex(d)].Add(1)
	h.sumNs.Add(int64(d))
}

// Snapshot captures the histogram's current state. Count is derived from
// the bucket counts, so the Prometheus invariant (+Inf cumulative ==
// count) holds exactly even under concurrent writes.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	s.SumSeconds = float64(h.sumNs.Load()) / 1e9
	return s
}

// HistogramSnapshot is an immutable point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	// Counts holds per-bucket (non-cumulative) observation counts; the
	// final element is the +Inf overflow bucket.
	Counts [NumBuckets + 1]uint64
	// Count is the total number of observations (the sum of Counts).
	Count uint64
	// SumSeconds is the sum of all observed latencies, in seconds.
	SumSeconds float64
}

// Quantile estimates the p-quantile (p in [0, 1]) in seconds by linear
// interpolation within the target bucket — the standard Prometheus
// histogram_quantile estimate. It returns 0 for an empty histogram; values
// in the overflow bucket report the largest finite bound.
func (s HistogramSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	rank := p * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			if i >= NumBuckets {
				return upperBoundsSeconds[NumBuckets-1]
			}
			lo := 0.0
			if i > 0 {
				lo = upperBoundsSeconds[i-1]
			}
			hi := upperBoundsSeconds[i]
			frac := 0.0
			if c > 0 {
				frac = (rank - cum) / float64(c)
			}
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum = next
	}
	return upperBoundsSeconds[NumBuckets-1]
}

// Mean returns the average observed latency in seconds (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.SumSeconds / float64(s.Count)
}

// P50, P90, P99, P999 are the quantile shorthands the serving reports use.
func (s HistogramSnapshot) P50() float64  { return s.Quantile(0.50) }
func (s HistogramSnapshot) P90() float64  { return s.Quantile(0.90) }
func (s HistogramSnapshot) P99() float64  { return s.Quantile(0.99) }
func (s HistogramSnapshot) P999() float64 { return s.Quantile(0.999) }

// HistogramVec is a set of Histograms keyed by a fixed list of label
// values — the route × model × outcome families the server exports. Lookup
// is a read-locked map hit; creation of a new label combination takes the
// write lock once.
type HistogramVec struct {
	labelNames []string
	mu         sync.RWMutex
	m          map[string]*vecEntry
}

type vecEntry struct {
	labelValues []string
	h           *Histogram
}

// NewHistogramVec creates a vector whose histograms are addressed by
// values for the given label names.
func NewHistogramVec(labelNames ...string) *HistogramVec {
	return &HistogramVec{
		labelNames: labelNames,
		m:          make(map[string]*vecEntry),
	}
}

// LabelNames returns the vector's label schema.
func (v *HistogramVec) LabelNames() []string { return v.labelNames }

// With returns (creating if needed) the histogram for the given label
// values. The number of values must match the label names; mismatches
// panic, as they are programming errors.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	if len(labelValues) != len(v.labelNames) {
		panic("obs: label value count mismatch")
	}
	key := joinKey(labelValues)
	v.mu.RLock()
	e, ok := v.m[key]
	v.mu.RUnlock()
	if ok {
		return e.h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if e, ok = v.m[key]; ok {
		return e.h
	}
	e = &vecEntry{labelValues: append([]string(nil), labelValues...), h: &Histogram{}}
	v.m[key] = e
	return e.h
}

// LabeledSnapshot is one (label values, snapshot) pair of a vector.
type LabeledSnapshot struct {
	LabelValues []string
	Snapshot    HistogramSnapshot
}

// Snapshots returns every series of the vector, sorted by label values so
// exports are deterministic.
func (v *HistogramVec) Snapshots() []LabeledSnapshot {
	v.mu.RLock()
	keys := make([]string, 0, len(v.m))
	entries := make(map[string]*vecEntry, len(v.m))
	for k, e := range v.m {
		keys = append(keys, k)
		entries[k] = e
	}
	v.mu.RUnlock()
	sortStrings(keys)
	out := make([]LabeledSnapshot, 0, len(keys))
	for _, k := range keys {
		e := entries[k]
		out = append(out, LabeledSnapshot{LabelValues: e.labelValues, Snapshot: e.h.Snapshot()})
	}
	return out
}

// joinKey builds the map key; \xff never appears in route/model/outcome
// labels.
func joinKey(values []string) string {
	n := 0
	for _, s := range values {
		n += len(s) + 1
	}
	b := make([]byte, 0, n)
	for i, s := range values {
		if i > 0 {
			b = append(b, 0xff)
		}
		b = append(b, s...)
	}
	return string(b)
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// roundSig rounds x to a few significant digits for human-facing reports
// (quantile estimates carry no more precision than their bucket width).
func roundSig(x float64, digits int) float64 {
	if x == 0 || math.IsInf(x, 0) || math.IsNaN(x) {
		return x
	}
	mag := math.Pow(10, float64(digits)-math.Ceil(math.Log10(math.Abs(x))))
	return math.Round(x*mag) / mag
}

// MsRound converts seconds to milliseconds rounded to 4 significant
// digits — the serving reports' display unit.
func MsRound(seconds float64) float64 { return roundSig(seconds*1e3, 4) }
