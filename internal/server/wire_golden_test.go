package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/crsky/crsky/internal/dataset"
)

// updateWireGolden rewrites testdata/wire_golden.json from the running
// handlers: go test ./internal/server -run TestWireGolden -update-wire-golden
var updateWireGolden = flag.Bool("update-wire-golden", false, "rewrite testdata/wire_golden.json")

// wireRecord is what a client observes of one response, except for the
// Retry-After header, which depends on the server's recent load.
type wireRecord struct {
	Name        string `json:"name"`
	Status      int    `json:"status"`
	ContentType string `json:"contentType"`
	Cache       string `json:"cache,omitempty"`
	Body        string `json:"body"`
}

type wireCase struct {
	name string
	path string
	body any // a raw string is sent verbatim
}

// watchThen is a /v2/watch body whose stream outlives its registered line:
// once that line has arrived the client sends an object DELETE to del, and
// the record holds the stream up to its terminal event. A plain watch
// record holds the registered line alone, then the client disconnects.
type watchThen struct {
	req *WatchRequest
	del string
}

// TestWireGolden pins the wire format of the compute endpoints: status,
// Content-Type, X-Crsky-Cache and the body bytes of /v1/query (miss, hit
// and bypass, and requests that still carry the fields of the deleted
// approximate tier, which the server ignores), /v1/explain with
// verification, /v1/repair, their 400/404/422 and draining-503 error
// envelopes, and the /v2/query and /v2/explain NDJSON bodies including a
// per-item error line, over sample, pdf and certain datasets. It also pins
// /v2/watch on each model: the registered line with and without repair,
// the 422, 404 and 400 rejections, and the flipped line after a delete.
// The cases run in order against one fresh server, so cache dispositions
// and dataset generations are deterministic.
func TestWireGolden(t *testing.T) {
	w := sampleWorkload(t)
	s := New(Config{Workers: 2, CacheSize: 256})
	c := newTestClient(t, s)

	c.registerSample("s", w.ds)
	und, err := dataset.GenerateUncertain(dataset.LUrU(400, 2, 50, 900, 23))
	if err != nil {
		t.Fatal(err)
	}
	c.registerSample("u", und)
	c.post("/v1/datasets", &DatasetRequest{Name: "p", Model: ModelPDF, PDFObjects: []PDFObjectSpec{
		{Kind: "uniform", Min: []float64{8, 8}, Max: []float64{9, 9}},
		{Kind: "uniform", Min: []float64{2, 2}, Max: []float64{3, 3}},
		{Kind: "gaussian", Min: []float64{-9, 4}, Max: []float64{-7, 6}},
	}}, nil, http.StatusCreated)
	c.post("/v1/datasets", &DatasetRequest{Name: "c", Model: ModelCertain,
		Points: [][]float64{{4, 4}, {1, 1}, {2, 2}, {-5, 9}}}, nil, http.StatusCreated)
	// The watch datasets share flipScenario's shape on each model: with q
	// at the origin, object 0 blocks object 1 out of the answer and object
	// 2 stands far away, so deleting object 0 flips object 1.
	for _, req := range []*DatasetRequest{flipScenario, flipSampleScenario, flipPDFScenario} {
		c.post("/v1/datasets", req, nil, http.StatusCreated)
	}

	answers := w.query(t, w.q, 0.5)
	if len(answers) == 0 {
		t.Fatal("sample workload has no answers")
	}
	an, ans := w.ids[0], answers[0]
	q2 := []float64{w.q[0] * 0.8, w.q[1] * 1.1}
	origin := []float64{0, 0}
	sOpts := OptionsSpec{MaxCandidates: 64}
	pOpts := OptionsSpec{QuadNodes: 4}

	cases := []wireCase{
		// /v1/query: exact miss, hit, bypass on each model.
		{"v1 query sample miss", "/v1/query", &QueryRequest{Dataset: "s", Q: w.q, Alpha: 0.5}},
		{"v1 query sample hit", "/v1/query", &QueryRequest{Dataset: "s", Q: w.q, Alpha: 0.5}},
		{"v1 query sample bypass", "/v1/query", &QueryRequest{Dataset: "s", Q: w.q, Alpha: 0.5, NoCache: true}},
		{"v1 query pdf miss", "/v1/query", &QueryRequest{Dataset: "p", Q: origin, Alpha: 0.5, QuadNodes: 4}},
		{"v1 query pdf hit", "/v1/query", &QueryRequest{Dataset: "p", Q: origin, Alpha: 0.5, QuadNodes: 4}},
		{"v1 query certain miss", "/v1/query", &QueryRequest{Dataset: "c", Q: origin}},
		{"v1 query certain hit", "/v1/query", &QueryRequest{Dataset: "c", Q: origin}},
		// Old clients of the deleted approximate tier: the server ignores
		// its fields, so each request gets the exact answer and shares the
		// exact cache entry, and a mode the tier rejected is no 400.
		{"v1 query old approx always miss", "/v1/query", `{"dataset":"u","q":[5000,5000],"alpha":0.5,"approx":"always","epsilon":0.05}`},
		{"v1 query old approx sometimes hit", "/v1/query", `{"dataset":"u","q":[5000,5000],"alpha":0.5,"approx":"sometimes"}`},

		// /v1/explain with verification: miss then hit on each model.
		{"v1 explain sample miss", "/v1/explain", &ExplainRequest{Dataset: "s", Q: w.q, An: an, Alpha: 0.5, Options: sOpts, Verify: true}},
		{"v1 explain sample hit", "/v1/explain", &ExplainRequest{Dataset: "s", Q: w.q, An: an, Alpha: 0.5, Options: sOpts, Verify: true}},
		{"v1 explain sample unverified hit", "/v1/explain", &ExplainRequest{Dataset: "s", Q: w.q, An: an, Alpha: 0.5, Options: sOpts}},
		{"v1 explain pdf miss", "/v1/explain", &ExplainRequest{Dataset: "p", Q: origin, An: 0, Alpha: 0.5, Options: pOpts, Verify: true}},
		{"v1 explain pdf hit", "/v1/explain", &ExplainRequest{Dataset: "p", Q: origin, An: 0, Alpha: 0.5, Options: pOpts, Verify: true}},
		{"v1 explain certain miss", "/v1/explain", &ExplainRequest{Dataset: "c", Q: origin, An: 0, Verify: true}},
		{"v1 explain certain hit", "/v1/explain", &ExplainRequest{Dataset: "c", Q: origin, An: 0, Verify: true}},
		{"v1 explain certain bypass", "/v1/explain", &ExplainRequest{Dataset: "c", Q: origin, An: 0, NoCache: true}},

		// /v1/repair: miss then hit on each model.
		{"v1 repair sample miss", "/v1/repair", &RepairRequest{Dataset: "s", Q: w.q, An: an, Alpha: 0.5, Options: sOpts}},
		{"v1 repair sample hit", "/v1/repair", &RepairRequest{Dataset: "s", Q: w.q, An: an, Alpha: 0.5, Options: sOpts}},
		{"v1 repair pdf miss", "/v1/repair", &RepairRequest{Dataset: "p", Q: origin, An: 0, Alpha: 0.5, Options: pOpts}},
		{"v1 repair pdf hit", "/v1/repair", &RepairRequest{Dataset: "p", Q: origin, An: 0, Alpha: 0.5, Options: pOpts}},
		{"v1 repair certain miss", "/v1/repair", &RepairRequest{Dataset: "c", Q: origin, An: 0}},
		{"v1 repair certain hit", "/v1/repair", &RepairRequest{Dataset: "c", Q: origin, An: 0}},
		{"v1 repair certain bypass", "/v1/repair", &RepairRequest{Dataset: "c", Q: origin, An: 0, NoCache: true}},

		// 400s.
		{"v1 query bad body", "/v1/query", `{"dataset":`},
		{"v1 explain bad body", "/v1/explain", `[1,2]`},
		{"v1 repair bad body", "/v1/repair", `{"an":"x"}`},
		{"v1 query no dataset", "/v1/query", &QueryRequest{Q: w.q, Alpha: 0.5}},
		{"v1 query bad alpha", "/v1/query", &QueryRequest{Dataset: "s", Q: w.q, Alpha: 1.5}},
		{"v1 explain bad alpha", "/v1/explain", &ExplainRequest{Dataset: "s", Q: w.q, An: an, Alpha: 0}},
		{"v1 repair bad alpha", "/v1/repair", &RepairRequest{Dataset: "p", Q: origin, An: 0, Alpha: -1}},
		{"v1 query bad dims", "/v1/query", &QueryRequest{Dataset: "s", Q: []float64{1, 2, 3}, Alpha: 0.5}},
		{"v1 explain bad dims", "/v1/explain", &ExplainRequest{Dataset: "c", Q: []float64{1}, An: 0}},
		{"v1 repair bad dims", "/v1/repair", &RepairRequest{Dataset: "s", Q: []float64{}, An: an, Alpha: 0.5}},
		{"v1 query bad timeout", "/v1/query?timeout=soon", &QueryRequest{Dataset: "s", Q: w.q, Alpha: 0.5}},
		{"v1 explain bad timeout", "/v1/explain?timeout=-1s", &ExplainRequest{Dataset: "s", Q: w.q, An: an, Alpha: 0.5}},
		{"v1 repair bad timeout", "/v1/repair?timeout=0", &RepairRequest{Dataset: "s", Q: w.q, An: an, Alpha: 0.5}},

		// 404s.
		{"v1 query unknown dataset", "/v1/query", &QueryRequest{Dataset: "nope", Q: w.q, Alpha: 0.5}},
		{"v1 explain unknown dataset", "/v1/explain", &ExplainRequest{Dataset: "nope", Q: w.q, An: an, Alpha: 0.5}},
		{"v1 repair unknown dataset", "/v1/repair", &RepairRequest{Dataset: "nope", Q: w.q, An: an, Alpha: 0.5}},
		{"v1 explain unknown object", "/v1/explain", &ExplainRequest{Dataset: "s", Q: w.q, An: 10 * w.ds.Len(), Alpha: 0.5}},
		{"v1 repair unknown object", "/v1/repair", &RepairRequest{Dataset: "c", Q: origin, An: 99}},

		// 422s.
		{"v1 explain sample answer", "/v1/explain", &ExplainRequest{Dataset: "s", Q: w.q, An: ans, Alpha: 0.5, Options: sOpts}},
		{"v1 explain certain answer", "/v1/explain", &ExplainRequest{Dataset: "c", Q: origin, An: 3}},
		{"v1 explain too many candidates", "/v1/explain", &ExplainRequest{Dataset: "s", Q: w.q, An: an, Alpha: 0.5, Options: OptionsSpec{MaxCandidates: 1}}},
		{"v1 repair sample answer", "/v1/repair", &RepairRequest{Dataset: "s", Q: w.q, An: ans, Alpha: 0.5, Options: sOpts}},
		{"v1 repair certain answer", "/v1/repair", &RepairRequest{Dataset: "c", Q: origin, An: 3}},

		// /v2 NDJSON: a partial hit, a full hit, a bypass, an old client of
		// the approximate tier, and explain batches with a per-item error
		// line.
		{"v2 query sample partial hit", "/v2/query", &BatchQueryRequest{Dataset: "s", Qs: [][]float64{w.q, q2}, Alpha: 0.5}},
		{"v2 query sample hit", "/v2/query", &BatchQueryRequest{Dataset: "s", Qs: [][]float64{q2, w.q}, Alpha: 0.5}},
		{"v2 query certain bypass", "/v2/query", &BatchQueryRequest{Dataset: "c", Qs: [][]float64{origin, {3, 3}}, NoCache: true}},
		{"v2 query old approx auto", "/v2/query", `{"dataset":"u","qs":[[5000,5000],[4000,6000]],"alpha":0.5,"approx":"auto"}`},
		{"v2 explain sample miss", "/v2/explain", &BatchExplainRequest{Dataset: "s", Alpha: 0.5, Verify: true,
			Options: OptionsSpec{MaxCandidates: 64},
			Items:   []BatchExplainItemRequest{{Q: w.q, An: an}, {Q: w.q, An: ans}, {Q: w.q, An: w.ids[1]}}}},
		{"v2 explain sample hit", "/v2/explain", &BatchExplainRequest{Dataset: "s", Alpha: 0.5, Verify: true,
			Options: OptionsSpec{MaxCandidates: 64},
			Items:   []BatchExplainItemRequest{{Q: w.q, An: w.ids[1]}, {Q: w.q, An: an}}}},
		{"v2 explain pdf", "/v2/explain", &BatchExplainRequest{Dataset: "p", Alpha: 0.5, Verify: true,
			Options: OptionsSpec{QuadNodes: 4},
			Items:   []BatchExplainItemRequest{{Q: origin, An: 0}, {Q: origin, An: 2}}}},
		{"v2 explain certain", "/v2/explain", &BatchExplainRequest{Dataset: "c", Verify: true,
			Items: []BatchExplainItemRequest{{Q: origin, An: 3}, {Q: origin, An: 0}, {Q: origin, An: 42}}}},
		{"v2 query no points", "/v2/query", &BatchQueryRequest{Dataset: "s", Alpha: 0.5}},
		{"v2 explain unknown dataset", "/v2/explain", &BatchExplainRequest{Dataset: "nope", Alpha: 0.5,
			Items: []BatchExplainItemRequest{{Q: w.q, An: an}}}},
	}
	for _, m := range []struct {
		model, name string
		alpha       float64
		quadNodes   int
	}{{"certain", "flip", 0, 0}, {"sample", "flipS", 0.5, 0}, {"pdf", "flipP", 0.5, 4}} {
		watchReq := func(an int) *WatchRequest {
			return &WatchRequest{Dataset: m.name, Q: origin, An: an, Alpha: m.alpha, QuadNodes: m.quadNodes}
		}
		withRepair, badQuad := watchReq(1), watchReq(1)
		withRepair.Repair, badQuad.QuadNodes = true, 5000
		cases = append(cases,
			wireCase{"v2 watch " + m.model + " registered", "/v2/watch", watchReq(1)},
			wireCase{"v2 watch " + m.model + " registered repair", "/v2/watch", withRepair},
			wireCase{"v2 watch " + m.model + " answer", "/v2/watch", watchReq(0)},
			wireCase{"v2 watch " + m.model + " bad quadNodes", "/v2/watch", badQuad},
			wireCase{"v2 watch " + m.model + " flipped", "/v2/watch",
				watchThen{watchReq(1), "/v2/datasets/" + m.name + "/objects/0"}},
			wireCase{"v2 watch " + m.model + " deleted an", "/v2/watch", watchReq(0)},
		)
	}
	// Draining: every computation is refused with a 503, while answers the
	// cache already holds are still served.
	drained := []wireCase{
		{"draining v1 query miss", "/v1/query", &QueryRequest{Dataset: "s", Q: q2, Alpha: 0.4}},
		{"draining v1 query hit", "/v1/query", &QueryRequest{Dataset: "s", Q: w.q, Alpha: 0.5}},
		{"draining v1 query old approx auto", "/v1/query", map[string]any{"dataset": "s", "q": q2, "alpha": 0.4, "approx": "auto"}},
		{"draining v1 explain miss", "/v1/explain", &ExplainRequest{Dataset: "s", Q: w.q, An: w.ids[2], Alpha: 0.5, Options: sOpts}},
		{"draining v1 explain hit", "/v1/explain", &ExplainRequest{Dataset: "c", Q: origin, An: 0, Verify: true}},
		{"draining v1 repair miss", "/v1/repair", &RepairRequest{Dataset: "s", Q: w.q, An: w.ids[2], Alpha: 0.5, Options: sOpts}},
		{"draining v1 repair hit", "/v1/repair", &RepairRequest{Dataset: "c", Q: origin, An: 0}},
		{"draining v2 query miss", "/v2/query", &BatchQueryRequest{Dataset: "s", Qs: [][]float64{q2}, Alpha: 0.4}},
		{"draining v2 explain miss", "/v2/explain", &BatchExplainRequest{Dataset: "s", Alpha: 0.5,
			Items: []BatchExplainItemRequest{{Q: w.q, An: w.ids[2]}}}},
	}

	var got []wireRecord
	run := func(cases []wireCase) {
		for _, wc := range cases {
			got = append(got, c.wireRecord(wc))
		}
	}
	run(cases)
	s.BeginDrain(0)
	run(drained)

	path := filepath.Join("testdata", "wire_golden.json")
	if *updateWireGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-wire-golden)", err)
	}
	var want []wireRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d responses, golden file has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: response differs from the golden file\n got: %+v\nwant: %+v", want[i].Name, got[i], want[i])
		}
	}
}

func (c *testClient) wireRecord(wc wireCase) wireRecord {
	c.tb.Helper()
	var body io.Reader
	req, then := wc.body, watchThen{}
	if wt, ok := req.(watchThen); ok {
		req, then = wt.req, wt
	}
	if s, ok := req.(string); ok {
		body = strings.NewReader(s)
	} else {
		raw, err := json.Marshal(req)
		if err != nil {
			c.tb.Fatal(err)
		}
		body = bytes.NewReader(raw)
	}
	resp, err := c.ts.Client().Post(c.ts.URL+wc.path, "application/json", body)
	if err != nil {
		c.tb.Fatal(err)
	}
	defer resp.Body.Close()
	var raw []byte
	if wc.path == "/v2/watch" && resp.StatusCode == http.StatusOK {
		br := bufio.NewReader(resp.Body)
		raw, err = br.ReadBytes('\n')
		if err == nil && then.del != "" {
			if dr, draw := c.do(http.MethodDelete, then.del, nil); dr.StatusCode != http.StatusOK {
				c.tb.Fatalf("%s: DELETE %s: status %d (%s)", wc.name, then.del, dr.StatusCode, draw)
			}
			var rest []byte
			rest, err = io.ReadAll(br)
			raw = append(raw, rest...)
		}
	} else {
		raw, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		c.tb.Fatal(err)
	}
	return wireRecord{
		Name:        wc.name,
		Status:      resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		Cache:       resp.Header.Get(headerCache),
		Body:        string(raw),
	}
}
