package server

import (
	"encoding/json"
	"net/http"
	"testing"
)

// explainGaugeObjects builds a small sample dataset with a guaranteed
// non-answer (object 0) whose explanation needs real refinement work: two
// partial blockers that each dominate the query w.r.t. an in only some
// worlds, so contingency search runs instead of the α=1 fast path.
func explainGaugeObjects() []ObjectSpec {
	obj := func(locs ...[]float64) ObjectSpec {
		p := 1 / float64(len(locs))
		var s []SampleSpec
		for _, l := range locs {
			s = append(s, SampleSpec{P: p, Loc: l})
		}
		return ObjectSpec{Samples: s}
	}
	return []ObjectSpec{
		obj([]float64{20, 20}, []float64{24, 24}),   // an
		obj([]float64{10, 10}, []float64{100, 100}), // partial blocker
		obj([]float64{15, 15}, []float64{-90, 90}),  // partial blocker
		obj([]float64{12, 11}, []float64{80, -70}),  // partial blocker
		obj([]float64{-50, -50}),                    // bystander
	}
}

// TestStatsExplainGauges pins the /v1/stats explanation-work gauges: a
// computed explanation must surface its subset verifications and
// candidate-retrieval node accesses, while cache hits must not double-count
// either.
func TestStatsExplainGauges(t *testing.T) {
	c := newTestClient(t, New(Config{Workers: 2, CacheSize: 16}))
	c.post("/v1/datasets", &DatasetRequest{Name: "d", Model: ModelSample, Objects: explainGaugeObjects()},
		nil, http.StatusCreated)

	readStats := func() StatsResponse {
		resp, raw := c.do(http.MethodGet, "/v1/stats", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/stats: status %d (%s)", resp.StatusCode, raw)
		}
		var st StatsResponse
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("stats payload: %v (%s)", err, raw)
		}
		return st
	}

	before := readStats()
	if before.Explain.ComputedExplanations != 0 {
		t.Fatalf("fresh server reports computed explanations: %+v", before.Explain)
	}

	var er ExplainResponse
	c.post("/v1/explain", &ExplainRequest{Dataset: "d", Q: []float64{0, 0}, An: 0, Alpha: 0.6},
		&er, http.StatusOK)
	if len(er.Causes) == 0 {
		t.Fatalf("explanation found no causes: %+v", er)
	}

	after := readStats()
	if after.Explain.ComputedExplanations != 1 {
		t.Fatalf("computed explanations = %d, want 1", after.Explain.ComputedExplanations)
	}
	if after.Explain.SubsetsExamined != er.SubsetsExamined || er.SubsetsExamined == 0 {
		t.Fatalf("gauge subsets %d, response subsets %d (want equal and non-zero)",
			after.Explain.SubsetsExamined, er.SubsetsExamined)
	}
	if after.Explain.FilterNodeAccesses != er.FilterNodeAccesses || er.FilterNodeAccesses == 0 {
		t.Fatalf("gauge filter IO %d, response %d (want equal and non-zero)",
			after.Explain.FilterNodeAccesses, er.FilterNodeAccesses)
	}

	// A cache hit must serve the same payload without re-counting work.
	var cached ExplainResponse
	c.post("/v1/explain", &ExplainRequest{Dataset: "d", Q: []float64{0, 0}, An: 0, Alpha: 0.6},
		&cached, http.StatusOK)
	if cached.SubsetsExamined != er.SubsetsExamined {
		t.Fatalf("cached response diverged: %+v vs %+v", cached, er)
	}
	final := readStats()
	if final.Explain != after.Explain {
		t.Fatalf("cache hit changed the work gauges: %+v -> %+v", after.Explain, final.Explain)
	}
}
