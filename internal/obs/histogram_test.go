package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{1, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{2*time.Microsecond + 1, 2},
		{time.Millisecond, 10},
		{time.Second, 20},
		{134 * time.Second, NumBuckets - 1},
		{1000 * time.Second, NumBuckets},
		{time.Duration(math.MaxInt64), NumBuckets},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Every bucket's upper bound must land in its own bucket (le is
	// inclusive), and one nanosecond more in the next.
	for i, b := range UpperBounds() {
		d := time.Duration(b * 1e9)
		if got := bucketIndex(d); got != i {
			t.Errorf("bound %g s maps to bucket %d, want %d", b, got, i)
		}
	}
}

func TestHistogramObserveAndQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast observations and 10 slow ones: p50 in the fast bucket, p99
	// in the slow one.
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	wantSum := 90*100e-6 + 10*50e-3
	if math.Abs(s.SumSeconds-wantSum) > 1e-9 {
		t.Fatalf("sum = %g, want %g", s.SumSeconds, wantSum)
	}
	p50 := s.P50()
	if p50 <= 0 || p50 > 131.072e-6 {
		t.Errorf("p50 = %g s, want within the 100µs bucket (le 131.072µs)", p50)
	}
	p99 := s.P99()
	if p99 < 32.768e-3 || p99 > 67.108864e-3 {
		t.Errorf("p99 = %g s, want within the 50ms bucket", p99)
	}
	if m := s.Mean(); math.Abs(m-wantSum/100) > 1e-9 {
		t.Errorf("mean = %g, want %g", m, wantSum/100)
	}
	if q0 := s.Quantile(0); q0 < 0 {
		t.Errorf("q0 = %g", q0)
	}
	if q1 := s.Quantile(1); q1 < p99 {
		t.Errorf("q1 = %g < p99 = %g", q1, p99)
	}
}

func TestHistogramEmptyAndNil(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
	var nilH *Histogram
	nilH.Observe(time.Second) // must not panic
	if nilH.Snapshot().Count != 0 {
		t.Fatal("nil histogram snapshot not empty")
	}
}

// TestHistogramConcurrent hammers one histogram from 32 goroutines and
// asserts no observation is lost — the satellite-task race test (run under
// -race in CI).
func TestHistogramConcurrent(t *testing.T) {
	const goroutines = 32
	const perG = 2000
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Spread observations over many buckets.
				h.Observe(time.Duration(1+(g*perG+i)%5000000) * time.Microsecond)
			}
		}()
	}
	// Concurrent readers must see consistent (monotone-cumulative)
	// snapshots while writes are in flight.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s := h.Snapshot()
			var cum uint64
			for _, c := range s.Counts {
				cum += c
			}
			if cum != s.Count {
				t.Errorf("snapshot count %d != bucket sum %d", s.Count, cum)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d (lost observations)", s.Count, goroutines*perG)
	}
}

func TestHistogramVec(t *testing.T) {
	v := NewHistogramVec("route", "outcome")
	v.With("/v1/query", "ok").Observe(time.Millisecond)
	v.With("/v1/query", "ok").Observe(2 * time.Millisecond)
	v.With("/v1/explain", "error").Observe(time.Second)
	snaps := v.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("series = %d, want 2", len(snaps))
	}
	// Deterministic order: sorted by label values.
	if snaps[0].LabelValues[0] != "/v1/explain" {
		t.Errorf("unexpected order: %v", snaps[0].LabelValues)
	}
	if snaps[1].Snapshot.Count != 2 {
		t.Errorf("query count = %d, want 2", snaps[1].Snapshot.Count)
	}
	defer func() {
		if recover() == nil {
			t.Error("label arity mismatch did not panic")
		}
	}()
	v.With("only-one")
}

func TestPromHistogramFormat(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Microsecond)
	h.Observe(3 * time.Millisecond)
	var b strings.Builder
	PromHead(&b, "x_seconds", "histogram", "test family")
	PromHistogram(&b, "x_seconds", []Label{{"route", "/v1/query"}}, h.Snapshot())
	out := b.String()
	for _, want := range []string{
		"# HELP x_seconds test family",
		"# TYPE x_seconds histogram",
		`x_seconds_bucket{route="/v1/query",le="+Inf"} 2`,
		`x_seconds_count{route="/v1/query"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Cumulative monotonicity across all bucket lines.
	var last float64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "x_seconds_bucket") {
			continue
		}
		var v float64
		if _, err := fmtSscanLast(line, &v); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not monotone at %q", line)
		}
		last = v
	}
}

func TestPromEscaping(t *testing.T) {
	var b strings.Builder
	PromValue(&b, "m", []Label{{"k", "a\"b\\c\nd"}}, 1)
	want := `m{k="a\"b\\c\nd"} 1` + "\n"
	if b.String() != want {
		t.Fatalf("got %q want %q", b.String(), want)
	}
}

// fmtSscanLast parses the final whitespace-separated field of line as a
// float.
func fmtSscanLast(line string, v *float64) (int, error) {
	fields := strings.Fields(line)
	return fmt.Sscan(fields[len(fields)-1], v)
}

// BenchmarkHistogramObserve measures the record path the <1% overhead
// acceptance criterion refers to (three atomic adds).
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Observe(time.Duration(i) * time.Microsecond)
			i++
		}
	})
}
