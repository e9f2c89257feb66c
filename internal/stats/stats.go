// Package stats provides the measurement machinery used by the experiment
// harness: node-access (I/O) counters matching the paper's primary metric,
// batch aggregation over repeated queries, and plain-text table
// rendering for the figures and tables reproduced from the paper.
package stats

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Counter is a monotone event count, safe for concurrent use. The server
// keeps its request, cache and per-dataset node-access totals in Counters;
// the node accesses themselves ("number of node accesses (i.e., I/O)",
// Section 5.1) are counted per call by each R-tree traversal.
type Counter struct {
	n atomic.Int64
}

// Inc adds one access.
func (c *Counter) Inc() {
	if c != nil {
		c.n.Add(1)
	}
}

// Add adds n accesses.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.n.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Measurement is one observed (I/O, CPU) pair for a single query run.
type Measurement struct {
	NodeAccesses int64
	CPU          time.Duration
}

// Batch aggregates measurements over a set of query runs (the paper averages
// over 50 randomly selected non-answers).
type Batch struct {
	runs []Measurement
}

// Record appends one measurement.
func (b *Batch) Record(m Measurement) { b.runs = append(b.runs, m) }

// Len returns the number of recorded runs.
func (b *Batch) Len() int { return len(b.runs) }

// MeanIO returns the average node accesses per run (0 for an empty batch).
func (b *Batch) MeanIO() float64 {
	if len(b.runs) == 0 {
		return 0
	}
	var sum int64
	for _, m := range b.runs {
		sum += m.NodeAccesses
	}
	return float64(sum) / float64(len(b.runs))
}

// MeanCPU returns the average CPU time per run (0 for an empty batch).
func (b *Batch) MeanCPU() time.Duration {
	if len(b.runs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, m := range b.runs {
		sum += m.CPU
	}
	return sum / time.Duration(len(b.runs))
}

// String summarizes the batch as "io=… cpu=… (n runs)".
func (b *Batch) String() string {
	return fmt.Sprintf("io=%.1f cpu=%s (%d runs)", b.MeanIO(), b.MeanCPU(), b.Len())
}
