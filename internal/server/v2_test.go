package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	crsky "github.com/crsky/crsky"
)

// --- cache-key completeness -------------------------------------------

// perturb sets a field of a v2 request struct to a non-zero value, so the
// key test can demand a distinct cache key per field. Unknown kinds fail
// loudly: a new field of a new shape must teach this function (and the
// cache keys) about itself.
func perturb(t *testing.T, fv reflect.Value, name string) {
	t.Helper()
	switch fv.Interface().(type) {
	case string:
		fv.SetString("x")
	case float64:
		fv.SetFloat(0.5)
	case int:
		fv.SetInt(7)
	case bool:
		fv.SetBool(true)
	case [][]float64:
		fv.Set(reflect.ValueOf([][]float64{{1, 2}}))
	case []BatchExplainItemRequest:
		fv.Set(reflect.ValueOf([]BatchExplainItemRequest{{Q: []float64{1, 2}, An: 3}}))
	case OptionsSpec:
		fv.Set(reflect.ValueOf(OptionsSpec{MaxSubsets: 9}))
	default:
		t.Fatalf("field %s has type %s: teach the v2 key test (and the cache key) how to handle it", name, fv.Type())
	}
}

// TestV2CacheKeysCoverEveryField walks both v2 request structs by
// reflection, perturbs one field at a time, and demands that the per-item
// cache keys change for every perturbation except the declared delivery
// directives. A field the keys ignore would let the server serve a cached
// item computed for a different request — the bug class this test makes
// impossible to reintroduce silently.
func TestV2CacheKeysCoverEveryField(t *testing.T) {
	ent := &entry{name: "d", gen: 1}
	// NoCache is the cache directive itself; the Approx trio selects the
	// degraded tier, whose responses are never cached; Verify re-checks
	// per request whatever is served, so verified and unverified requests
	// share entries; ItemTimeout bounds delivery, not the computed result.
	exempt := map[string]bool{"NoCache": true, "Approx": true, "Epsilon": true,
		"Confidence": true, "Verify": true, "ItemTimeout": true}

	// The baselines are non-zero: per-item keys exist per ITEM, so a
	// zero-item request would hide Alpha/Options perturbations.
	check := func(t *testing.T, base any, key func(v reflect.Value) string) {
		typ := reflect.TypeOf(base)
		baseKey := key(reflect.ValueOf(base))
		seen := map[string]string{baseKey: "<base>"}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			v := reflect.New(typ).Elem()
			v.Set(reflect.ValueOf(base))
			perturb(t, v.Field(i), typ.Name()+"."+f.Name)
			k := key(v)
			if exempt[f.Name] {
				if k != baseKey {
					t.Errorf("%s.%s is exempt but still feeds the keys", typ.Name(), f.Name)
				}
				continue
			}
			if k == baseKey {
				t.Errorf("%s.%s is not covered by the cache keys", typ.Name(), f.Name)
				continue
			}
			if prev, dup := seen[k]; dup {
				t.Errorf("%s: fields %s and %s collide on key %q", typ.Name(), prev, f.Name, k)
			}
			seen[k] = f.Name
		}
	}

	check(t, BatchQueryRequest{Dataset: "d", Qs: [][]float64{{9, 9}}}, func(v reflect.Value) string {
		r := v.Interface().(BatchQueryRequest)
		return strings.Join(r.itemKeys(ent), "\n")
	})
	check(t, BatchExplainRequest{Dataset: "d", Items: []BatchExplainItemRequest{{Q: []float64{9, 9}, An: 1}}},
		func(v reflect.Value) string {
			r := v.Interface().(BatchExplainRequest)
			return strings.Join(r.itemKeys(ent), "\n")
		})
}

// TestV2CacheKeyCoversBatchShape pins the per-item key semantics: keys
// follow their items (permuting the batch permutes the keys, dropping an
// item drops its key) while each item's key is independent of its
// position and siblings. That independence is the point of per-item
// caching — any batch, or a v1 single query, that contains the item can
// serve or warm it.
func TestV2CacheKeyCoversBatchShape(t *testing.T) {
	ent := &entry{name: "d", gen: 1}
	a := BatchQueryRequest{Dataset: "d", Qs: [][]float64{{1, 2}, {3, 4}}, Alpha: 0.5}
	b := BatchQueryRequest{Dataset: "d", Qs: [][]float64{{3, 4}, {1, 2}}, Alpha: 0.5}
	ka, kb := a.itemKeys(ent), b.itemKeys(ent)
	if ka[0] == ka[1] {
		t.Error("distinct query points share a key")
	}
	if ka[0] != kb[1] || ka[1] != kb[0] {
		t.Error("permuting the batch did not permute the per-item keys")
	}
	c := BatchQueryRequest{Dataset: "d", Qs: [][]float64{{1, 2}}, Alpha: 0.5}
	if kc := c.itemKeys(ent); len(kc) != 1 || kc[0] != ka[0] {
		t.Error("an item's key depends on its siblings")
	}
}

// TestOptionsIgnoreParallel decodes /v1/explain, /v2/explain and /v1/repair
// bodies whose options carry "parallel". A worker count is not part of the
// wire API (one explanation's search is serial), so each body must build
// the same cache key as the body without it. The test only decodes: a
// large "parallel" is never sent to a server.
func TestOptionsIgnoreParallel(t *testing.T) {
	const (
		without = `"options":{"maxCandidates":64}`
		with    = `"options":{"maxCandidates":64,"parallel":1073741824}`
	)
	ent := &entry{name: "d", gen: 1}
	decode := func(body string, v any) {
		t.Helper()
		if err := json.Unmarshal([]byte(body), v); err != nil {
			t.Fatalf("decoding %s: %v", body, err)
		}
	}
	keys := map[string]func(opts string) string{
		"/v1/explain": func(opts string) string {
			var req ExplainRequest
			decode(`{"dataset":"d","q":[1,2],"an":3,"alpha":0.5,`+opts+`}`, &req)
			return explainKey(req.Dataset, ent.gen, req.Q, req.An, req.Alpha, req.Options.toOptions())
		},
		"/v2/explain": func(opts string) string {
			var req BatchExplainRequest
			decode(`{"dataset":"d","alpha":0.5,"items":[{"q":[1,2],"an":3}],`+opts+`}`, &req)
			return strings.Join(req.itemKeys(ent), "\n")
		},
		// The repair key's only options input is the options' Key.
		"/v1/repair": func(opts string) string {
			var req RepairRequest
			decode(`{"dataset":"d","q":[1,2],"an":3,"alpha":0.5,`+opts+`}`, &req)
			return req.Options.toOptions().Key()
		},
	}
	for route, key := range keys {
		if got, want := key(with), key(without); got != want {
			t.Errorf("%s: options with \"parallel\" build key %q, want %q", route, got, want)
		}
	}
}

// --- NDJSON helpers ----------------------------------------------------

func decodeNDJSON[T any](t *testing.T, raw []byte) []T {
	t.Helper()
	var out []T
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		var item T
		if err := dec.Decode(&item); err != nil {
			t.Fatalf("bad NDJSON line %d: %v (body %s)", len(out), err, raw)
		}
		out = append(out, item)
	}
	return out
}

// --- end-to-end --------------------------------------------------------

// TestServerV2QueryBatch drives /v2/query against the library ground truth
// per point, asserts request-ordered NDJSON, and checks the second
// identical request is served from the cache.
func TestServerV2QueryBatch(t *testing.T) {
	w := sampleWorkload(t)
	s := New(Config{})
	c := newTestClient(t, s)
	c.registerSample("demo", w.ds)

	qs := [][]float64{w.q, {w.q[0] * 0.8, w.q[1] * 1.1}, {w.q[0] * 1.3, w.q[1] * 0.7}}
	req := &BatchQueryRequest{Dataset: "demo", Qs: qs, Alpha: 0.5}
	resp, raw := c.do(http.MethodPost, "/v2/query", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (body %s)", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
	}
	if got := resp.Header.Get(headerCache); got != "miss" {
		t.Fatalf("first request cache header %q, want miss", got)
	}
	items := decodeNDJSON[BatchQueryItem](t, raw)
	if len(items) != len(qs) {
		t.Fatalf("%d NDJSON items, want %d", len(items), len(qs))
	}
	for i, it := range items {
		if it.Index != i {
			t.Fatalf("item %d has index %d: responses must be request-ordered", i, it.Index)
		}
		want := w.eng.ProbabilisticReverseSkylineNaive(qs[i], 0.5)
		if fmt.Sprint(it.Answers) != fmt.Sprint(append([]int{}, want...)) {
			t.Fatalf("q #%d: got %v, want %v", i, it.Answers, want)
		}
		if it.Count != len(want) {
			t.Fatalf("q #%d: count %d, want %d", i, it.Count, len(want))
		}
	}

	resp2, raw2 := c.do(http.MethodPost, "/v2/query", req)
	if got := resp2.Header.Get(headerCache); got != "hit" {
		t.Fatalf("second request cache header %q, want hit", got)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatalf("cached response differs from computed one:\n%s\nvs\n%s", raw, raw2)
	}
}

// TestServerV2ExplainBatch drives /v2/explain with a mix of tractable
// non-answers and an answer, asserting per-item results crossed against
// the direct library engine and a per-item error for the answer.
func TestServerV2ExplainBatch(t *testing.T) {
	w := sampleWorkload(t)
	s := New(Config{})
	c := newTestClient(t, s)
	c.registerSample("demo", w.ds)

	// One known answer for the per-item error path.
	answers := w.query(t, w.q, 0.5)
	if len(answers) == 0 {
		t.Fatal("workload has no answers")
	}
	items := []BatchExplainItemRequest{
		{Q: w.q, An: w.ids[0]},
		{Q: w.q, An: answers[0]},
		{Q: w.q, An: w.ids[1]},
	}
	req := &BatchExplainRequest{
		Dataset: "demo", Items: items, Alpha: 0.5,
		Options: OptionsSpec{MaxCandidates: 60}, Verify: true,
	}
	resp, raw := c.do(http.MethodPost, "/v2/explain", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (body %s)", resp.StatusCode, raw)
	}
	got := decodeNDJSON[BatchExplainItem](t, raw)
	if len(got) != len(items) {
		t.Fatalf("%d NDJSON items, want %d", len(got), len(items))
	}
	for i, an := range []int{w.ids[0], answers[0], w.ids[1]} {
		it := got[i]
		if it.Index != i {
			t.Fatalf("item %d has index %d", i, it.Index)
		}
		if i == 1 {
			if it.Error == "" || it.Explain != nil {
				t.Fatalf("item %d (an answer) should fail per-item, got %+v", i, it)
			}
			continue
		}
		if it.Error != "" || it.Explain == nil {
			t.Fatalf("item %d: unexpected error %q", i, it.Error)
		}
		want, err := w.eng.ExplainCtx(context.Background(), an, w.q, 0.5, req.Options.toOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(it.Explain.Causes) != len(want.Causes) {
			t.Fatalf("item %d: %d causes, library says %d", i, len(it.Explain.Causes), len(want.Causes))
		}
		for j := range want.Causes {
			if it.Explain.Causes[j].ID != want.Causes[j].ID ||
				it.Explain.Causes[j].Responsibility != want.Causes[j].Responsibility {
				t.Fatalf("item %d cause %d: got %+v, want %+v", i, j, it.Explain.Causes[j], want.Causes[j])
			}
		}
		if !it.Explain.Verified {
			t.Fatalf("item %d not marked verified", i)
		}
	}
}

// TestServerV2DeadlineReleasesPool asserts an expired ?timeout= fails with
// 503 while leaving the worker pool fully available: the slot is released
// the moment the engine observes the cancellation, and the next request
// computes normally.
func TestServerV2DeadlineReleasesPool(t *testing.T) {
	w := sampleWorkload(t)
	s := New(Config{Workers: 1})
	c := newTestClient(t, s)
	c.registerSample("demo", w.ds)

	req := &BatchQueryRequest{Dataset: "demo", Qs: [][]float64{w.q}, Alpha: 0.5, NoCache: true}
	resp, raw := c.do(http.MethodPost, "/v2/query?timeout=1ns", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired deadline: status %d, want 503 (body %s)", resp.StatusCode, raw)
	}

	deadline := time.Now().Add(2 * time.Second)
	for s.pool.Stats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pool slot still held after canceled request: %+v", s.pool.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	resp2, raw2 := c.do(http.MethodPost, "/v2/query", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("request after cancellation: status %d (body %s) — slot not released?", resp2.StatusCode, raw2)
	}
}

// TestServerV2BadTimeout asserts a malformed timeout is rejected up front.
func TestServerV2BadTimeout(t *testing.T) {
	w := sampleWorkload(t)
	s := New(Config{})
	c := newTestClient(t, s)
	c.registerSample("demo", w.ds)
	req := &BatchQueryRequest{Dataset: "demo", Qs: [][]float64{w.q}, Alpha: 0.5}
	c.post("/v2/query?timeout=banana", req, nil, http.StatusBadRequest)
	ereq := &BatchExplainRequest{Dataset: "demo", Alpha: 0.5, ItemTimeout: "banana",
		Items: []BatchExplainItemRequest{{Q: w.q, An: 0}}}
	c.post("/v2/explain", ereq, nil, http.StatusBadRequest)
}

// --- true streaming ----------------------------------------------------

// streamGate wraps an engine so the batch blocks after emitting its first
// item until the test releases it. If /v2/query really streams, the first
// NDJSON line reaches the client while the engine is still held; if the
// handler buffers until the batch completes, nothing arrives until the
// 5-second failsafe trips and timedOut records the regression.
type streamGate struct {
	crsky.Explainer
	release  chan struct{}
	timedOut atomic.Bool
}

func (g *streamGate) QueryBatchStream(ctx context.Context, qs []crsky.Point, alpha float64,
	opts crsky.QueryOptions, emit func(int, []int)) ([][]int, crsky.QueryStats, error) {

	return g.Explainer.QueryBatchStream(ctx, qs, alpha, opts, func(i int, ids []int) {
		emit(i, ids)
		if i == 0 {
			select {
			case <-g.release:
			case <-ctx.Done():
			case <-time.After(5 * time.Second):
				g.timedOut.Store(true)
			}
		}
	})
}

// TestServerV2QueryStreamsBeforeBatchCompletes asserts the core streaming
// contract: the first NDJSON line is flushed to the client BEFORE the last
// item of the batch computes.
func TestServerV2QueryStreamsBeforeBatchCompletes(t *testing.T) {
	w := sampleWorkload(t)
	var gate *streamGate
	s := New(Config{WrapEngine: func(e crsky.Explainer) crsky.Explainer {
		gate = &streamGate{Explainer: e, release: make(chan struct{})}
		return gate
	}})
	c := newTestClient(t, s)
	c.registerSample("demo", w.ds)

	qs := [][]float64{w.q, {w.q[0] * 0.8, w.q[1] * 1.1}, {w.q[0] * 1.3, w.q[1] * 0.7}}
	body, err := json.Marshal(&BatchQueryRequest{Dataset: "demo", Qs: qs, Alpha: 0.5, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.ts.Client().Post(c.ts.URL+"/v2/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	// The engine is parked after item 0: this read completes only if the
	// server flushed the line item-by-item.
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading first NDJSON line: %v", err)
	}
	var first BatchQueryItem
	if err := json.Unmarshal(line, &first); err != nil {
		t.Fatalf("bad first line %q: %v", line, err)
	}
	if first.Index != 0 || first.Error != "" {
		t.Fatalf("first line = %+v, want item 0 with no error", first)
	}
	if gate.timedOut.Load() {
		t.Fatal("first line was not flushed until the whole batch completed")
	}

	close(gate.release)
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	items := append([]BatchQueryItem{first}, decodeNDJSON[BatchQueryItem](t, rest)...)
	if len(items) != len(qs) {
		t.Fatalf("%d NDJSON items, want %d", len(items), len(qs))
	}
	for i, it := range items {
		if it.Index != i || it.Error != "" {
			t.Fatalf("item %d = %+v", i, it)
		}
		want := w.eng.ProbabilisticReverseSkylineNaive(qs[i], 0.5)
		if fmt.Sprint(it.Answers) != fmt.Sprint(append([]int{}, want...)) {
			t.Fatalf("q #%d: got %v, want %v", i, it.Answers, want)
		}
	}
}

// failAfterFirst emits a real answer for item 0 and then fails the batch —
// the deterministic mid-stream engine failure.
type failAfterFirst struct {
	crsky.Explainer
}

func (g *failAfterFirst) QueryBatchStream(ctx context.Context, qs []crsky.Point, alpha float64,
	opts crsky.QueryOptions, emit func(int, []int)) ([][]int, crsky.QueryStats, error) {

	ids, st, err := g.Explainer.QueryCtx(ctx, qs[0], alpha, opts)
	if err != nil {
		return nil, st, err
	}
	if emit != nil {
		emit(0, ids)
	}
	return nil, st, errors.New("batch backend exploded")
}

// TestServerV2QueryMidStreamErrorEnvelopes asserts that an engine failure
// after items are already on the wire degrades to per-item error envelopes
// on the unfinished tail — the stream stays well-formed NDJSON with one
// line per item instead of being truncated.
func TestServerV2QueryMidStreamErrorEnvelopes(t *testing.T) {
	w := sampleWorkload(t)
	s := New(Config{WrapEngine: func(e crsky.Explainer) crsky.Explainer {
		return &failAfterFirst{Explainer: e}
	}})
	c := newTestClient(t, s)
	c.registerSample("demo", w.ds)

	qs := [][]float64{w.q, {w.q[0] * 0.8, w.q[1] * 1.1}, {w.q[0] * 1.3, w.q[1] * 0.7}}
	req := &BatchQueryRequest{Dataset: "demo", Qs: qs, Alpha: 0.5, NoCache: true}
	resp, raw := c.do(http.MethodPost, "/v2/query", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (body %s): first item was flushed before the failure", resp.StatusCode, raw)
	}
	items := decodeNDJSON[BatchQueryItem](t, raw)
	if len(items) != len(qs) {
		t.Fatalf("%d NDJSON items, want %d: %s", len(items), len(qs), raw)
	}
	if items[0].Error != "" {
		t.Fatalf("item 0 carries error %q, want the real answer", items[0].Error)
	}
	want := w.eng.ProbabilisticReverseSkylineNaive(qs[0], 0.5)
	if fmt.Sprint(items[0].Answers) != fmt.Sprint(append([]int{}, want...)) {
		t.Fatalf("item 0 answers %v, want %v", items[0].Answers, want)
	}
	for i := 1; i < len(items); i++ {
		if items[i].Index != i || items[i].Error == "" {
			t.Fatalf("item %d = %+v, want an error envelope", i, items[i])
		}
	}
}

// --- per-item cache shared with v1 -------------------------------------

// TestServerV2PerItemCacheSharedWithV1 asserts the split cache: a batch
// warms the v1 single-query cache item by item, and v1-warmed points make
// a later batch an all-hit.
func TestServerV2PerItemCacheSharedWithV1(t *testing.T) {
	w := sampleWorkload(t)
	s := New(Config{})
	c := newTestClient(t, s)
	c.registerSample("demo", w.ds)

	q2 := []float64{w.q[0] * 0.8, w.q[1] * 1.1}
	req := &BatchQueryRequest{Dataset: "demo", Qs: [][]float64{w.q, q2}, Alpha: 0.5}
	resp, raw := c.do(http.MethodPost, "/v2/query", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d (body %s)", resp.StatusCode, raw)
	}
	items := decodeNDJSON[BatchQueryItem](t, raw)

	// v1 single query on a batch member is a cache hit with the same answer.
	var qr QueryResponse
	r1 := c.post("/v1/query", &QueryRequest{Dataset: "demo", Q: q2, Alpha: 0.5}, &qr, http.StatusOK)
	if got := r1.Header.Get(headerCache); got != "hit" {
		t.Fatalf("v1 query after batch: cache header %q, want hit", got)
	}
	if fmt.Sprint(qr.Answers) != fmt.Sprint(items[1].Answers) {
		t.Fatalf("v1 served %v from the batch-warmed cache, batch said %v", qr.Answers, items[1].Answers)
	}

	// A v1-warmed point plus an already-cached one make a batch all-hit.
	q3 := []float64{w.q[0] * 1.3, w.q[1] * 0.7}
	c.post("/v1/query", &QueryRequest{Dataset: "demo", Q: q3, Alpha: 0.5}, &qr, http.StatusOK)
	req2 := &BatchQueryRequest{Dataset: "demo", Qs: [][]float64{q3, w.q}, Alpha: 0.5}
	resp2, raw2 := c.do(http.MethodPost, "/v2/query", req2)
	if got := resp2.Header.Get(headerCache); got != "hit" {
		t.Fatalf("batch over v1-warmed points: cache header %q, want hit (body %s)", got, raw2)
	}
	items2 := decodeNDJSON[BatchQueryItem](t, raw2)
	if fmt.Sprint(items2[0].Answers) != fmt.Sprint(qr.Answers) {
		t.Fatalf("batch served %v for the v1-warmed point, v1 said %v", items2[0].Answers, qr.Answers)
	}
}

// --- per-item deadlines ------------------------------------------------

// TestServerV2ExplainItemTimeout asserts ItemTimeout fails items ALONE:
// the batch stays a 200 with one error line per blown item (where the old
// behavior failed the whole request), error items are never cached, and
// the same request without the per-item bound computes and then hits.
func TestServerV2ExplainItemTimeout(t *testing.T) {
	w := sampleWorkload(t)
	s := New(Config{})
	c := newTestClient(t, s)
	c.registerSample("demo", w.ds)

	items := []BatchExplainItemRequest{{Q: w.q, An: w.ids[0]}, {Q: w.q, An: w.ids[1]}}
	req := &BatchExplainRequest{Dataset: "demo", Items: items, Alpha: 0.5,
		Options: OptionsSpec{MaxCandidates: 60}, ItemTimeout: "1ns"}
	resp, raw := c.do(http.MethodPost, "/v2/explain", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("per-item deadline killed the whole batch: status %d (body %s)", resp.StatusCode, raw)
	}
	got := decodeNDJSON[BatchExplainItem](t, raw)
	if len(got) != len(items) {
		t.Fatalf("%d NDJSON items, want %d", len(got), len(items))
	}
	for i, it := range got {
		if it.Index != i || it.Error == "" || it.Explain != nil {
			t.Fatalf("item %d = %+v, want a per-item deadline error", i, it)
		}
	}

	// Failed items were not cached: the unbounded retry computes (miss),
	// succeeds, and only then populates the per-item cache (hit).
	req.ItemTimeout = ""
	resp2, raw2 := c.do(http.MethodPost, "/v2/explain", req)
	if got := resp2.Header.Get(headerCache); got != "miss" {
		t.Fatalf("retry after deadline failures: cache header %q, want miss", got)
	}
	for i, it := range decodeNDJSON[BatchExplainItem](t, raw2) {
		if it.Error != "" || it.Explain == nil {
			t.Fatalf("unbounded retry item %d = %+v", i, it)
		}
	}
	resp3, _ := c.do(http.MethodPost, "/v2/explain", req)
	if got := resp3.Header.Get(headerCache); got != "hit" {
		t.Fatalf("third request: cache header %q, want hit", got)
	}
}
