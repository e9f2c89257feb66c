package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

// A tail percentile is reported only with at least ten samples beyond it.
func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {99, 0, false}, {100, 0.9, true}, {999, 0.9, true},
		{1000, 0.99, true}, {9999, 0.99, true}, {10000, 0.999, true},
	} {
		q, ok := tailQuantile(c.n)
		if ok != c.ok || q != c.want {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.want, c.ok)
		}
	}
	if got := percentileLabel(0.999); got != "99.9" {
		t.Errorf("percentileLabel(0.999) = %q", got)
	}
	p := &phase{lat: map[string][]float64{"a": make([]float64, 100), "b": make([]float64, 99)}}
	named := namedMetrics(p, map[string]float64{})
	if m, ok := named["a_p90_ms"]; !ok || m.Samples != 100 {
		t.Errorf("a_p90_ms = %+v, %v; want 100 samples", m, ok)
	}
	if _, ok := named["b_p90_ms"]; ok {
		t.Error("b_p90_ms reported from 99 samples")
	}
}

// Each client's rate counts only its completed cycles, up to the end of
// its last one; the clients' rates add.
func TestWholeCycleRate(t *testing.T) {
	clients := [][]cycle{
		{{end: time.Second, ops: 1}, {end: 2 * time.Second, ops: 1}},
		{{end: 500 * time.Millisecond, ops: 3}},
		nil,
	}
	if got := wholeCycleRate(clients); !near(got, 1+6) {
		t.Errorf("wholeCycleRate = %v, want 7", got)
	}
	if got := wholeCycleRate(nil); got != 0 {
		t.Errorf("wholeCycleRate(nil) = %v", got)
	}
}

// Self time subtracts the union of the children's intervals, clipped to
// the parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "http", Start: 0, End: 10},
		{ID: 2, Parent: 1, Req: 1, Name: "a", Start: 1, End: 3},
		{ID: 3, Parent: 1, Req: 1, Name: "b", Start: 2, End: 5}, // overlaps a
		{ID: 4, Parent: 1, Req: 1, Name: "c", Start: 9, End: 12},
		{ID: 5, Parent: 3, Req: 1, Name: "d", Start: 2.5, End: 3},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]float64{1: 10 - 4 - 1, 2: 2, 3: 2.5, 4: 3, 5: 0.5} {
		if !near(self[id], want) {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

// Steal is the steal share of all ticks between two readings; the
// unstolen share floors at 0.1 so a pathological reading cannot blow up a
// scaled metric.
func TestStealShare(t *testing.T) {
	a := cpuTimes{total: 1000, steal: 100}
	b := cpuTimes{total: 2000, steal: 300}
	if got := stealPct(a, b); !near(got, 20) {
		t.Errorf("stealPct = %v, want 20", got)
	}
	if got := unstolen(a, b); !near(got, 0.8) {
		t.Errorf("unstolen = %v, want 0.8", got)
	}
	if got := unstolen(a, cpuTimes{total: 1100, steal: 200}); !near(got, 0.1) {
		t.Errorf("unstolen at full steal = %v, want the 0.1 floor", got)
	}
	if got := stealPct(b, a); got != 0 {
		t.Errorf("stealPct backwards = %v, want 0", got)
	}
}

const promBefore = `# HELP crsky_request_duration_seconds Request latency.
# TYPE crsky_request_duration_seconds histogram
crsky_request_duration_seconds_bucket{route="/v1/query",model="sample",le="0.001"} 1
crsky_request_duration_seconds_bucket{route="/v1/query",model="sample",le="0.002"} 3
crsky_request_duration_seconds_bucket{route="/v1/query",model="sample",le="0.004"} 3
crsky_request_duration_seconds_bucket{route="/v1/query",model="sample",le="+Inf"} 3
crsky_request_duration_seconds_sum{route="/v1/query",model="sample"} 0.004
crsky_request_duration_seconds_count{route="/v1/query",model="sample"} 3
crsky_request_duration_seconds_bucket{route="/v1/explain",model="sample",le="0.001"} 7
crsky_request_duration_seconds_bucket{route="/v1/explain",model="sample",le="0.002"} 7
crsky_request_duration_seconds_bucket{route="/v1/explain",model="sample",le="0.004"} 7
crsky_request_duration_seconds_bucket{route="/v1/explain",model="sample",le="+Inf"} 7
crsky_request_duration_seconds_sum{route="/v1/explain",model="sample"} 0.003
crsky_request_duration_seconds_count{route="/v1/explain",model="sample"} 7
crsky_mutations_total{op="insert",model="certain"} 2
crsky_mutations_total{op="delete",model="certain"} 3
`

const promAfter = `crsky_request_duration_seconds_bucket{route="/v1/query",model="sample",le="0.001"} 1
crsky_request_duration_seconds_bucket{route="/v1/query",model="sample",le="0.002"} 5
crsky_request_duration_seconds_bucket{route="/v1/query",model="sample",le="0.004"} 9
crsky_request_duration_seconds_bucket{route="/v1/query",model="sample",le="+Inf"} 10
crsky_request_duration_seconds_sum{route="/v1/query",model="sample"} 0.03
crsky_request_duration_seconds_count{route="/v1/query",model="sample"} 10
crsky_request_duration_seconds_bucket{route="/v1/explain",model="sample",le="0.001"} 9
crsky_request_duration_seconds_bucket{route="/v1/explain",model="sample",le="0.002"} 9
crsky_request_duration_seconds_bucket{route="/v1/explain",model="sample",le="0.004"} 9
crsky_request_duration_seconds_bucket{route="/v1/explain",model="sample",le="+Inf"} 9
crsky_request_duration_seconds_sum{route="/v1/explain",model="sample"} 0.004
crsky_request_duration_seconds_count{route="/v1/explain",model="sample"} 9
crsky_mutations_total{op="insert",model="certain"} 4
crsky_mutations_total{op="delete",model="certain"} 5
crsky_label_escape{path="a\"b\\c"} 1
`

func TestHistogramDeltaFromMetrics(t *testing.T) {
	b, err := parseProm(promBefore)
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseProm(promAfter)
	if err != nil {
		t.Fatal(err)
	}
	before, after := promScrape(b), promScrape(a)
	want := map[string]string{"route": "/v1/query"}
	d := after.histogramOf("crsky_request_duration_seconds", want).
		minus(before.histogramOf("crsky_request_duration_seconds", want))
	if d.count != 7 || !near(d.sum, 0.026) {
		t.Fatalf("delta count %v sum %v, want 7 and 0.026", d.count, d.sum)
	}
	if wantCum := []float64{0, 2, 6, 7}; len(d.cum) != 4 || d.cum[0] != wantCum[0] || d.cum[1] != wantCum[1] ||
		d.cum[2] != wantCum[2] || d.cum[3] != wantCum[3] || !math.IsInf(d.bounds[3], 1) {
		t.Fatalf("delta buckets %v %v, want cumulative %v", d.bounds, d.cum, wantCum)
	}
	// Rank 3.5 of 7 falls in (0.002, 0.004], which holds ranks 3..6.
	if got := d.quantile(0.5); !near(got, 0.002+0.002*1.5/4) {
		t.Errorf("p50 = %v", got)
	}
	// A rank in the +Inf bucket reads as the highest finite bound.
	if got := d.quantile(0.99); !near(got, 0.004) {
		t.Errorf("p99 = %v, want 0.004", got)
	}
	if got := d.mean(); !near(got, 0.026/7) {
		t.Errorf("mean = %v", got)
	}
	if got := after.sum("crsky_mutations_total", nil) - before.sum("crsky_mutations_total", nil); got != 4 {
		t.Errorf("mutations delta = %v, want 4", got)
	}
	if got := after.sum("crsky_label_escape", map[string]string{"path": `a"b\c`}); got != 1 {
		t.Errorf("escaped label not matched: %v", got)
	}
	if _, err := parseProm("no_value_here"); err == nil {
		t.Error("parseProm accepted a line without a value")
	}
}

// BENCHMARK.json declares exactly the metrics this program prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, program prints %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(def.Workloads), len(workloads))
	}
	for _, w := range def.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
}
