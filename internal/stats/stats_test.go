package stats

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatal("zero value should start at 0")
	}
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
}

func TestCounterNilSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(10)
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("Value = %d, want 8000", got)
	}
}

func TestBatchAggregation(t *testing.T) {
	var b Batch
	if b.MeanIO() != 0 || b.MeanCPU() != 0 {
		t.Fatal("empty batch should aggregate to zero")
	}
	b.Record(Measurement{NodeAccesses: 10, CPU: 10 * time.Millisecond})
	b.Record(Measurement{NodeAccesses: 30, CPU: 30 * time.Millisecond})
	if got := b.MeanIO(); got != 20 {
		t.Fatalf("MeanIO = %v, want 20", got)
	}
	if got := b.MeanCPU(); got != 20*time.Millisecond {
		t.Fatalf("MeanCPU = %v", got)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	if s := b.String(); !strings.Contains(s, "io=20.0") {
		t.Fatalf("String = %q", s)
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{
		Title:   "Figure X",
		Header:  []string{"alpha", "io", "cpu(ms)"},
		Caption: "caption line",
	}
	tab.AddRow(0.2, 1234.0, 5.5)
	tab.AddRow("1", 17.0, 0.25)
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Figure X", "alpha", "1234", "caption line", "0.25"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + header + separator + 2 rows + caption.
	if len(lines) != 6 {
		t.Errorf("expected 6 lines, got %d:\n%s", len(lines), out)
	}
}

func TestFormatFloat(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{5, "5"},
		{1234, "1234"},
		{0.5, "0.5"},
		{123.456, "123.5"},
		{0.123456, "0.1235"},
	}
	for _, tt := range tests {
		if got := formatFloat(tt.in); got != tt.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}
