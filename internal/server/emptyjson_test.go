package server

import (
	"bytes"
	"net/http"
	"testing"
)

// TestEmptyAnswersMarshalAsArray pins the JSON shape of list-returning
// endpoints when nothing qualifies: an empty answer set must serialize as
// [] — never null — so typed clients decode it without surprises.
//
// The two-object dataset is built so that each object certainly dominates
// q with respect to the other one (both lie between the other and q), so
// Pr = 0 for both and every threshold empties the answer set.
func TestEmptyAnswersMarshalAsArray(t *testing.T) {
	c := newTestClient(t, New(Config{Workers: 2, CacheSize: 16}))

	req := &DatasetRequest{
		Name:  "mutual",
		Model: ModelSample,
		Objects: []ObjectSpec{
			{Samples: []SampleSpec{{P: 1, Loc: []float64{1, 1}}}},
			{Samples: []SampleSpec{{P: 1, Loc: []float64{2, 2}}}},
		},
	}
	var info DatasetInfo
	c.post("/v1/datasets", req, &info, http.StatusCreated)

	resp, raw := c.do(http.MethodPost, "/v1/query", &QueryRequest{
		Dataset: "mutual", Q: []float64{10, 10}, Alpha: 0.5,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, raw)
	}
	if bytes.Contains(raw, []byte("null")) {
		t.Fatalf("query response contains null: %s", raw)
	}
	if !bytes.Contains(raw, []byte(`"answers":[]`)) {
		t.Fatalf("empty answers not marshaled as []: %s", raw)
	}

	var qr QueryResponse
	c.post("/v1/query", &QueryRequest{Dataset: "mutual", Q: []float64{10, 10}, Alpha: 0.5}, &qr, http.StatusOK)
	if qr.Count != 0 || qr.Answers == nil || len(qr.Answers) != 0 {
		t.Fatalf("unexpected query response: %+v", qr)
	}
}

// TestLibraryQueryNeverNil pins the same guarantee at the engine layer:
// the accelerated query path returns a non-nil slice even when no object
// qualifies, so library users marshaling results directly also get [].
func TestLibraryQueryNeverNil(t *testing.T) {
	w := sampleWorkload(t)
	// Alpha 1 with a query far outside the domain corner: every object
	// has some dominating competitor, so the answer set is empty.
	ids := w.query(t, []float64{-1e6, -1e6}, 1)
	if ids == nil {
		t.Fatal("QueryCtx returned nil for an empty result")
	}
}
