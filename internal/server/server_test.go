package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	crsky "github.com/crsky/crsky"
	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/experiments"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/skyline"
	"github.com/crsky/crsky/internal/uncertain"
)

// --- shared workload --------------------------------------------------

type testWorkload struct {
	ds  *dataset.Uncertain
	q   geom.Point
	ids []int // tractable non-answers
	eng *crsky.Engine
}

var (
	workloadOnce sync.Once
	workload     *testWorkload
	workloadErr  error
)

// sampleWorkload builds (once) a small uncertain dataset with known
// tractable non-answers plus a direct library engine over the same
// objects, the ground truth every server response is compared against.
func sampleWorkload(tb testing.TB) *testWorkload {
	tb.Helper()
	workloadOnce.Do(func() {
		cfg := experiments.Config{Seed: 1, Runs: 8, MaxPool: 12, MaxCandidates: 60, NaiveMaxCandidates: 12}
		ds, q, ids, err := experiments.BenchWorkloadCP(cfg, "lUrU", 2000, 2, 1, 5, 0.5, 12)
		if err != nil {
			workloadErr = err
			return
		}
		eng, err := crsky.NewEngine(ds.Objects)
		if err != nil {
			workloadErr = err
			return
		}
		eng.Warm()
		workload = &testWorkload{ds: ds, q: q, ids: ids, eng: eng}
	})
	if workloadErr != nil {
		tb.Fatalf("workload: %v", workloadErr)
	}
	return workload
}

// query is the library ground truth: the engine's QueryCtx on q at alpha.
func (w *testWorkload) query(tb testing.TB, q geom.Point, alpha float64) []int {
	tb.Helper()
	ids, _, err := w.eng.QueryCtx(context.Background(), q, alpha, crsky.QueryOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return ids
}

func objectSpecs(ds *dataset.Uncertain) []ObjectSpec {
	specs := make([]ObjectSpec, ds.Len())
	for i, o := range ds.Objects {
		ss := make([]SampleSpec, len(o.Samples))
		for j, s := range o.Samples {
			ss[j] = SampleSpec{P: s.P, Loc: s.Loc}
		}
		specs[i] = ObjectSpec{Samples: ss}
	}
	return specs
}

// --- HTTP helpers -----------------------------------------------------

type testClient struct {
	tb testing.TB
	ts *httptest.Server
}

func newTestClient(tb testing.TB, s *Server) *testClient {
	ts := httptest.NewServer(s.Handler())
	tb.Cleanup(ts.Close)
	return &testClient{tb: tb, ts: ts}
}

// do issues a request and returns the response; body holds the full
// payload and the response body is already closed.
func (c *testClient) do(method, path string, req any) (*http.Response, []byte) {
	c.tb.Helper()
	var body io.Reader
	if req != nil {
		raw, err := json.Marshal(req)
		if err != nil {
			c.tb.Fatal(err)
		}
		body = bytes.NewReader(raw)
	}
	httpReq, err := http.NewRequest(method, c.ts.URL+path, body)
	if err != nil {
		c.tb.Fatal(err)
	}
	resp, err := c.ts.Client().Do(httpReq)
	if err != nil {
		c.tb.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.tb.Fatal(err)
	}
	return resp, raw
}

func (c *testClient) post(path string, req, out any, wantStatus int) *http.Response {
	c.tb.Helper()
	resp, raw := c.do(http.MethodPost, path, req)
	if resp.StatusCode != wantStatus {
		c.tb.Fatalf("POST %s: status %d, want %d (body %s)", path, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			c.tb.Fatalf("POST %s: bad response %s: %v", path, raw, err)
		}
	}
	return resp
}

func (c *testClient) registerSample(name string, ds *dataset.Uncertain) DatasetInfo {
	c.tb.Helper()
	var info DatasetInfo
	c.post("/v1/datasets", &DatasetRequest{Name: name, Model: ModelSample, Objects: objectSpecs(ds)}, &info, http.StatusCreated)
	return info
}

// resultFromResponse rebuilds the library result from a server response
// so that crsky's independent verifier can re-check it client-side.
func resultFromResponse(er *ExplainResponse) *causality.Result {
	causes := make([]causality.Cause, len(er.Causes))
	for i, cj := range er.Causes {
		causes[i] = causality.Cause{
			ID:             cj.ID,
			Responsibility: cj.Responsibility,
			Contingency:    cj.Contingency,
			Counterfactual: cj.Counterfactual,
		}
	}
	return &causality.Result{NonAnswer: er.NonAnswer, Pr: er.Pr, Causes: causes, Candidates: er.Candidates}
}

// --- end-to-end flow --------------------------------------------------

func TestServerEndToEndSample(t *testing.T) {
	w := sampleWorkload(t)
	c := newTestClient(t, New(Config{Workers: 4, CacheSize: 128}))

	info := c.registerSample("lUrU", w.ds)
	if info.Size != w.ds.Len() || info.Dims != 2 || info.Model != ModelSample {
		t.Fatalf("register info = %+v", info)
	}

	// Query must match the library's probabilistic reverse skyline.
	var qr QueryResponse
	c.post("/v1/query", &QueryRequest{Dataset: "lUrU", Q: w.q, Alpha: 0.5}, &qr, http.StatusOK)
	want := w.query(t, w.q, 0.5)
	if want == nil {
		want = []int{}
	}
	if !reflect.DeepEqual(qr.Answers, want) {
		t.Fatalf("query answers = %v, want %v", qr.Answers, want)
	}

	// Explain must match the library's direct output and verify.
	an := w.ids[0]
	opts := causality.Options{MaxCandidates: 64}
	direct, err := w.eng.ExplainCtx(context.Background(), an, w.q, 0.5, opts)
	if err != nil {
		t.Fatal(err)
	}
	var er ExplainResponse
	req := &ExplainRequest{Dataset: "lUrU", Q: w.q, An: an, Alpha: 0.5,
		Options: OptionsSpec{MaxCandidates: 64}, Verify: true}
	resp := c.post("/v1/explain", req, &er, http.StatusOK)
	if got := resp.Header.Get(headerCache); got != "miss" {
		t.Fatalf("first explain cache header = %q, want miss", got)
	}
	if !er.Verified {
		t.Fatal("explain response not verified")
	}
	if er.NonAnswer != direct.NonAnswer || er.Pr != direct.Pr || er.Candidates != direct.Candidates {
		t.Fatalf("explain envelope = %+v, direct = %+v", er, direct)
	}
	if !reflect.DeepEqual(er.Causes, causesJSON(direct.Causes)) {
		t.Fatalf("explain causes = %v, want %v", er.Causes, causesJSON(direct.Causes))
	}
	if err := w.eng.VerifyCtx(context.Background(), w.q, 0.5, resultFromResponse(&er)); err != nil {
		t.Fatalf("client-side verify: %v", err)
	}

	// Repair must match the library's minimal repair.
	directRep, err := w.eng.RepairCtx(context.Background(), an, w.q, 0.5, opts)
	if err != nil {
		t.Fatal(err)
	}
	var rr RepairResponse
	c.post("/v1/repair", &RepairRequest{Dataset: "lUrU", Q: w.q, An: an, Alpha: 0.5,
		Options: OptionsSpec{MaxCandidates: 64}}, &rr, http.StatusOK)
	if !reflect.DeepEqual(rr.Removed, directRep.Removed) || rr.NewPr != directRep.NewPr || rr.Exact != directRep.Exact {
		t.Fatalf("repair = %+v, direct = %+v", rr, directRep)
	}
}

func TestServerEndToEndCertain(t *testing.T) {
	c := newTestClient(t, New(Config{Workers: 2, CacheSize: 16}))
	// q at the origin; p0 is blocked by p1 and p2, p3 is unblocked.
	pts := [][]float64{{4, 4}, {1, 1}, {2, 2}, {-5, 9}}
	var info DatasetInfo
	c.post("/v1/datasets", &DatasetRequest{Name: "cert", Model: ModelCertain, Points: pts}, &info, http.StatusCreated)
	if info.Model != ModelCertain || info.Size != 4 {
		t.Fatalf("register info = %+v", info)
	}

	q := []float64{0, 0}
	var qr QueryResponse
	c.post("/v1/query", &QueryRequest{Dataset: "cert", Q: q}, &qr, http.StatusOK)
	gpts := make([]geom.Point, len(pts))
	for i, p := range pts {
		gpts[i] = geom.Point(p)
	}
	eng, err := crsky.NewCertainEngine(gpts)
	if err != nil {
		t.Fatal(err)
	}
	want := skyline.BruteReverseSkyline(gpts, geom.Point(q))
	if !reflect.DeepEqual(qr.Answers, want) {
		t.Fatalf("certain query = %v, want %v", qr.Answers, want)
	}
	if qr.Alpha != 1 {
		t.Fatalf("certain query alpha = %v, want 1", qr.Alpha)
	}

	var er ExplainResponse
	c.post("/v1/explain", &ExplainRequest{Dataset: "cert", Q: q, An: 0, Verify: true}, &er, http.StatusOK)
	direct, err := eng.ExplainCtx(context.Background(), 0, geom.Point(q), 1, causality.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !er.Verified || !reflect.DeepEqual(er.Causes, causesJSON(direct.Causes)) {
		t.Fatalf("certain explain = %+v, direct causes = %v", er, direct.Causes)
	}
	if err := eng.VerifyCtx(context.Background(), geom.Point(q), 1, resultFromResponse(&er)); err != nil {
		t.Fatalf("client-side certain verify: %v", err)
	}

	var rr RepairResponse
	c.post("/v1/repair", &RepairRequest{Dataset: "cert", Q: q, An: 0}, &rr, http.StatusOK)
	directRep, err := eng.RepairCtx(context.Background(), 0, geom.Point(q), 1, causality.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rr.Removed, directRep.Removed) || !rr.Exact {
		t.Fatalf("certain repair = %+v, direct = %+v", rr, directRep)
	}
}

func TestServerEndToEndPDF(t *testing.T) {
	c := newTestClient(t, New(Config{Workers: 2, CacheSize: 16}))
	specs := []PDFObjectSpec{
		{Kind: "uniform", Min: []float64{8, 8}, Max: []float64{9, 9}},    // blocked by 1
		{Kind: "uniform", Min: []float64{2, 2}, Max: []float64{3, 3}},    // blocker
		{Kind: "gaussian", Min: []float64{-9, 4}, Max: []float64{-7, 6}}, // independent
	}
	var info DatasetInfo
	c.post("/v1/datasets", &DatasetRequest{Name: "pdf", Model: ModelPDF, PDFObjects: specs}, &info, http.StatusCreated)
	if info.Model != ModelPDF || info.Size != 3 {
		t.Fatalf("register info = %+v", info)
	}

	q := []float64{0, 0}
	var qr QueryResponse
	c.post("/v1/query", &QueryRequest{Dataset: "pdf", Q: q, Alpha: 0.5, QuadNodes: 4}, &qr, http.StatusOK)
	for _, id := range qr.Answers {
		if id == 0 {
			t.Fatalf("blocked pdf object in answers: %v", qr.Answers)
		}
	}

	var er ExplainResponse
	c.post("/v1/explain", &ExplainRequest{Dataset: "pdf", Q: q, An: 0, Alpha: 0.5,
		Options: OptionsSpec{QuadNodes: 4}}, &er, http.StatusOK)
	if len(er.Causes) == 0 || er.Causes[0].ID != 1 {
		t.Fatalf("pdf explain causes = %v, want object 1 as cause", er.Causes)
	}

	// Verify and repair run on the pdf model too — the quadrature-backed
	// Definition-1 audit re-checks the explanation, and the minimal repair
	// removes the blocker.
	c.post("/v1/explain", &ExplainRequest{Dataset: "pdf", Q: q, An: 0, Alpha: 0.5, Verify: true,
		Options: OptionsSpec{QuadNodes: 4}}, &er, http.StatusOK)
	if !er.Verified {
		t.Fatal("pdf explanation not marked verified")
	}
	var rr RepairResponse
	c.post("/v1/repair", &RepairRequest{Dataset: "pdf", Q: q, An: 0, Alpha: 0.5,
		Options: OptionsSpec{QuadNodes: 4}}, &rr, http.StatusOK)
	if len(rr.Removed) != 1 || rr.Removed[0] != 1 {
		t.Fatalf("pdf repair removed %v, want the blocker [1]", rr.Removed)
	}
	if rr.NewPr < 0.5 {
		t.Fatalf("pdf repair NewPr = %g, want >= alpha", rr.NewPr)
	}
}

// TestServerRejectsOversizedQuadNodes sends a quadNodes the server must not
// build to every endpoint that carries one: each answers 400, and the
// server keeps answering afterwards. Unchecked, such a value reaches the
// quadrature, where the k^d node allocation crashes the whole process.
func TestServerRejectsOversizedQuadNodes(t *testing.T) {
	c := newTestClient(t, New(Config{Workers: 2, CacheSize: 16}))
	// One object per octant around q: none dominates another outright, so
	// every object reaches the exact (quadrature) stage.
	specs := make([]PDFObjectSpec, 8)
	for i := range specs {
		lo, hi := make([]float64, 3), make([]float64, 3)
		for d := range lo {
			sign := float64(1 - 2*(i>>d&1))
			lo[d], hi[d] = min(3*sign, 7*sign), max(3*sign, 7*sign)
		}
		specs[i] = PDFObjectSpec{Kind: "uniform", Min: lo, Max: hi}
	}
	c.post("/v1/datasets", &DatasetRequest{Name: "pdf", Model: ModelPDF, PDFObjects: specs}, nil, http.StatusCreated)

	q := []float64{0, 0, 0}
	// 25000 exceeds the per-dimension cap; 128 does not, but its 3-d grid
	// of 128³ ≈ 2.1M nodes exceeds the node cap.
	for _, k := range []int{25000, 128} {
		opts := OptionsSpec{QuadNodes: k}
		for _, tc := range []struct {
			path string
			req  any
		}{
			{"/v1/query", &QueryRequest{Dataset: "pdf", Q: q, Alpha: 0.5, QuadNodes: k}},
			{"/v2/query", &BatchQueryRequest{Dataset: "pdf", Qs: [][]float64{q}, Alpha: 0.5, QuadNodes: k}},
			{"/v1/explain", &ExplainRequest{Dataset: "pdf", Q: q, An: 7, Alpha: 0.5, Options: opts}},
			{"/v2/explain", &BatchExplainRequest{Dataset: "pdf", Items: []BatchExplainItemRequest{{Q: q, An: 7}}, Alpha: 0.5, Options: opts}},
			{"/v1/repair", &RepairRequest{Dataset: "pdf", Q: q, An: 7, Alpha: 0.5, Options: opts}},
			{"/v2/watch", &WatchRequest{Dataset: "pdf", Q: q, An: 7, Alpha: 0.5, QuadNodes: k}},
		} {
			if resp, raw := c.do(http.MethodPost, tc.path, tc.req); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s with quadNodes %d: status %d, want 400 (body %s)", tc.path, k, resp.StatusCode, raw)
			}
		}
	}

	for _, tc := range []struct{ k, dims int }{{0, 8}, {-1, 3}, {1024, 1}, {101, 3}, {uncertain.DefaultQuadNodes(8), 8}} {
		if err := checkQuadNodes(tc.k, tc.dims); err != nil {
			t.Errorf("quadNodes %d at %d dims rejected: %v", tc.k, tc.dims, err)
		}
	}
	for _, tc := range []struct{ k, dims int }{{1025, 1}, {102, 3}, {7, 8}} {
		if checkQuadNodes(tc.k, tc.dims) == nil {
			t.Errorf("quadNodes %d at %d dims accepted", tc.k, tc.dims)
		}
	}

	// Values <= 0 select the default grid, which is never rejected.
	var def, neg QueryResponse
	c.post("/v1/query", &QueryRequest{Dataset: "pdf", Q: q, Alpha: 0.5}, &def, http.StatusOK)
	c.post("/v1/query", &QueryRequest{Dataset: "pdf", Q: q, Alpha: 0.5, QuadNodes: -1}, &neg, http.StatusOK)
	if !reflect.DeepEqual(def.Answers, neg.Answers) {
		t.Fatalf("quadNodes -1 answered %v, the default grid %v", neg.Answers, def.Answers)
	}
}

// --- cache invariance --------------------------------------------------

// TestServerCacheInvariance asserts the core cache contract: a cached
// explanation is byte-identical to a freshly computed one, and both pass
// the library's independent verifier.
func TestServerCacheInvariance(t *testing.T) {
	w := sampleWorkload(t)
	c := newTestClient(t, New(Config{Workers: 4, CacheSize: 128}))
	c.registerSample("lUrU", w.ds)

	req := &ExplainRequest{Dataset: "lUrU", Q: w.q, An: w.ids[1], Alpha: 0.5,
		Options: OptionsSpec{MaxCandidates: 64}, Verify: true}

	resp1, body1 := c.do(http.MethodPost, "/v1/explain", req)
	resp2, body2 := c.do(http.MethodPost, "/v1/explain", req)
	fresh := *req
	fresh.NoCache = true
	resp3, body3 := c.do(http.MethodPost, "/v1/explain", &fresh)

	for i, resp := range []*http.Response{resp1, resp2, resp3} {
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i+1, resp.StatusCode)
		}
	}
	if got := resp1.Header.Get(headerCache); got != "miss" {
		t.Fatalf("request 1 cache header = %q, want miss", got)
	}
	if got := resp2.Header.Get(headerCache); got != "hit" {
		t.Fatalf("request 2 cache header = %q, want hit", got)
	}
	if got := resp3.Header.Get(headerCache); got != "bypass" {
		t.Fatalf("request 3 cache header = %q, want bypass", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached response differs from fresh:\n%s\n%s", body1, body2)
	}
	if !bytes.Equal(body1, body3) {
		t.Fatalf("cache-bypassing response differs:\n%s\n%s", body1, body3)
	}

	for i, body := range [][]byte{body1, body2} {
		var er ExplainResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		if !er.Verified {
			t.Fatalf("response %d not server-verified", i+1)
		}
		if err := w.eng.VerifyCtx(context.Background(), w.q, 0.5, resultFromResponse(&er)); err != nil {
			t.Fatalf("response %d fails client-side verify: %v", i+1, err)
		}
	}
}

// --- registry lifecycle and error paths --------------------------------

func TestServerDatasetLifecycleAndErrors(t *testing.T) {
	w := sampleWorkload(t)
	c := newTestClient(t, New(Config{Workers: 2, CacheSize: 16}))
	c.registerSample("a", w.ds)

	var list []DatasetInfo
	resp, raw := c.do(http.MethodGet, "/v1/datasets", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &list); err != nil || len(list) != 1 || list[0].Name != "a" {
		t.Fatalf("list = %s (err %v)", raw, err)
	}

	// Replacing a dataset bumps its generation.
	gen1 := list[0].Generation
	info2 := c.registerSample("a", w.ds)
	if info2.Generation <= gen1 {
		t.Fatalf("generation after replacement = %d, want > %d", info2.Generation, gen1)
	}

	if resp, _ := c.do(http.MethodDelete, "/v1/datasets/a", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	if resp, _ := c.do(http.MethodDelete, "/v1/datasets/a", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete status = %d", resp.StatusCode)
	}

	// Unknown dataset, dimension mismatch, bad alpha, answer object,
	// unknown object.
	c.post("/v1/explain", &ExplainRequest{Dataset: "nope", Q: w.q, An: 0, Alpha: 0.5}, nil, http.StatusNotFound)
	c.registerSample("a", w.ds)
	c.post("/v1/explain", &ExplainRequest{Dataset: "a", Q: []float64{1, 2, 3}, An: 0, Alpha: 0.5}, nil, http.StatusBadRequest)
	c.post("/v1/explain", &ExplainRequest{Dataset: "a", Q: w.q, An: 0, Alpha: 1.5}, nil, http.StatusBadRequest)
	answers := w.query(t, w.q, 0.5)
	if len(answers) > 0 {
		c.post("/v1/explain", &ExplainRequest{Dataset: "a", Q: w.q, An: answers[0], Alpha: 0.5},
			nil, http.StatusUnprocessableEntity)
	}
	c.post("/v1/explain", &ExplainRequest{Dataset: "a", Q: w.q, An: 10 * w.ds.Len(), Alpha: 0.5},
		nil, http.StatusNotFound)

	// Health endpoint.
	var health HealthResponse
	resp, raw = c.do(http.MethodGet, "/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if err := json.Unmarshal(raw, &health); err != nil || health.Status != "ok" || health.Datasets != 1 {
		t.Fatalf("healthz = %s (err %v)", raw, err)
	}
}

// TestServerCSVRegistration uploads through the CLI's CSV formats.
func TestServerCSVRegistration(t *testing.T) {
	w := sampleWorkload(t)
	var buf bytes.Buffer
	if err := dataset.SaveUncertainCSV(&buf, w.ds); err != nil {
		t.Fatal(err)
	}
	c := newTestClient(t, New(Config{Workers: 2, CacheSize: 16}))
	var info DatasetInfo
	c.post("/v1/datasets", &DatasetRequest{Name: "csv", Model: "uncertain", CSV: buf.String()}, &info, http.StatusCreated)
	if info.Size != w.ds.Len() || info.Model != ModelSample {
		t.Fatalf("csv register info = %+v", info)
	}

	var er ExplainResponse
	c.post("/v1/explain", &ExplainRequest{Dataset: "csv", Q: w.q, An: w.ids[0], Alpha: 0.5,
		Options: OptionsSpec{MaxCandidates: 64}}, &er, http.StatusOK)
	direct, err := w.eng.ExplainCtx(context.Background(), w.ids[0], w.q, 0.5, causality.Options{MaxCandidates: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(er.Causes, causesJSON(direct.Causes)) {
		t.Fatalf("csv-loaded explain differs: %v vs %v", er.Causes, causesJSON(direct.Causes))
	}
}

func TestServerRejectsBadRegistrations(t *testing.T) {
	c := newTestClient(t, New(Config{}))
	bad := []*DatasetRequest{
		{Name: "", Model: ModelCertain, Points: [][]float64{{1, 2}}},
		{Name: "x", Model: "wat", Points: [][]float64{{1, 2}}},
		{Name: "x", Model: ModelCertain},
		{Name: "x", Model: ModelSample},
		{Name: "x", Model: ModelPDF},
		{Name: "x", Model: ModelPDF, CSV: "1,2"},
		{Name: "x", Model: ModelCertain, Points: [][]float64{{1, 2}, {1}}},
		{Name: "x", Model: ModelSample, Objects: []ObjectSpec{{Samples: []SampleSpec{{P: 0.5, Loc: []float64{1, 2}}}}}},
		{Name: "x", Model: ModelPDF, PDFObjects: []PDFObjectSpec{{Kind: "uniform", Min: []float64{1}, Max: []float64{1, 2}}}},
		{Name: "x", Model: ModelPDF, PDFObjects: []PDFObjectSpec{{Kind: "wat", Min: []float64{1, 1}, Max: []float64{2, 2}}}},
	}
	for i, req := range bad {
		if resp, raw := c.do(http.MethodPost, "/v1/datasets", req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad registration %d: status %d (body %s)", i, resp.StatusCode, raw)
		}
	}
}
