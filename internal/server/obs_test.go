package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/crsky/crsky/internal/obs"
)

// --- /metrics ---------------------------------------------------------

// promFamily is one parsed metric family from the text exposition.
type promFamily struct {
	typ     string
	samples map[string]float64 // full sample line key (name{labels}) -> value
}

// parseProm parses the Prometheus 0.0.4 text format strictly enough to
// catch real exposition bugs: every sample line must be "key value",
// every family must have HELP and TYPE before its samples.
func parseProm(tb testing.TB, body string) map[string]*promFamily {
	tb.Helper()
	fams := map[string]*promFamily{}
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, found := strings.Cut(rest, " ")
			if !found {
				tb.Fatalf("HELP line without text: %q", line)
			}
			if fams[name] == nil {
				fams[name] = &promFamily{samples: map[string]float64{}}
			}
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, found := strings.Cut(rest, " ")
			if !found {
				tb.Fatalf("TYPE line without type: %q", line)
			}
			if fams[name] == nil {
				tb.Fatalf("TYPE before HELP for %q", name)
			}
			fams[name].typ = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		// Sample: name{labels} value — value is the last space-separated field.
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			tb.Fatalf("malformed sample line %q", line)
		}
		key, valStr := line[:idx], line[idx+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			tb.Fatalf("sample %q: bad value %q: %v", key, valStr, err)
		}
		base := key
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		// Histogram child series (name_bucket, name_sum, name_count) belong
		// to the parent family.
		fam := fams[base]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if fam == nil && strings.HasSuffix(base, suffix) {
				fam = fams[strings.TrimSuffix(base, suffix)]
			}
		}
		if fam == nil {
			tb.Fatalf("sample %q before its HELP/TYPE", key)
		}
		if _, dup := fam.samples[key]; dup {
			tb.Fatalf("duplicate sample %q", key)
		}
		fam.samples[key] = val
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return fams
}

func TestMetricsEndpoint(t *testing.T) {
	w := sampleWorkload(t)
	s := New(Config{Workers: 4, CacheSize: 128})
	c := newTestClient(t, s)
	c.registerSample("obs", w.ds)

	var qr QueryResponse
	c.post("/v1/query", &QueryRequest{Dataset: "obs", Q: w.q, Alpha: 0.5}, &qr, http.StatusOK)
	c.post("/v1/query", &QueryRequest{Dataset: "obs", Q: w.q, Alpha: 0.5}, &qr, http.StatusOK) // cache hit
	var er ExplainResponse
	c.post("/v1/explain", &ExplainRequest{Dataset: "obs", Q: w.q, An: w.ids[0], Alpha: 0.5,
		Options: OptionsSpec{MaxCandidates: 64}}, &er, http.StatusOK)
	// One client error, to exercise the outcome label.
	c.post("/v1/query", &QueryRequest{Dataset: "nope", Q: w.q, Alpha: 0.5}, nil, http.StatusNotFound)

	admin := httptest.NewServer(s.AdminHandler())
	defer admin.Close()
	resp, err := http.Get(admin.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	fams := parseProm(t, buf.String())

	for name, wantTyp := range map[string]string{
		"crsky_request_duration_seconds": "histogram",
		"crsky_pool_wait_seconds":        "histogram",
		"crsky_pool_workers":             "gauge",
		"crsky_cache_hits_total":         "counter",
		"crsky_requests_total":           "counter",
		"crsky_dataset_objects":          "gauge",
		"crsky_uptime_seconds":           "gauge",
	} {
		fam := fams[name]
		if fam == nil {
			t.Fatalf("family %q missing", name)
		}
		if fam.typ != wantTyp {
			t.Fatalf("family %q type = %q, want %q", name, fam.typ, wantTyp)
		}
	}

	// The query route must have recorded ok samples with the dataset model.
	rd := fams["crsky_request_duration_seconds"]
	countKey := `crsky_request_duration_seconds_count{route="/v1/query",model="sample",outcome="ok"}`
	if got := rd.samples[countKey]; got != 2 {
		t.Fatalf("%s = %v, want 2", countKey, got)
	}
	errKey := `crsky_request_duration_seconds_count{route="/v1/query",model="-",outcome="client_error"}`
	if got := rd.samples[errKey]; got != 1 {
		t.Fatalf("%s = %v, want 1", errKey, got)
	}

	// Histogram invariants for the ok series: buckets cumulative and
	// monotone, +Inf bucket equals _count, _sum positive.
	bounds := obs.UpperBounds()
	prev := 0.0
	series := `{route="/v1/query",model="sample",outcome="ok"}`
	for _, ub := range bounds {
		key := fmt.Sprintf(`crsky_request_duration_seconds_bucket{route="/v1/query",model="sample",outcome="ok",le=%q}`,
			strconv.FormatFloat(ub, 'g', -1, 64))
		v, ok := rd.samples[key]
		if !ok {
			t.Fatalf("bucket %s missing", key)
		}
		if v < prev {
			t.Fatalf("bucket %s = %v < previous %v (not cumulative)", key, v, prev)
		}
		prev = v
	}
	infKey := `crsky_request_duration_seconds_bucket{route="/v1/query",model="sample",outcome="ok",le="+Inf"}`
	inf, ok := rd.samples[infKey]
	if !ok {
		t.Fatalf("+Inf bucket missing for %s", series)
	}
	if inf < prev {
		t.Fatalf("+Inf bucket %v < last finite bucket %v", inf, prev)
	}
	if cnt := rd.samples["crsky_request_duration_seconds_count"+series]; cnt != inf {
		t.Fatalf("_count %v != +Inf bucket %v", cnt, inf)
	}
	if sum := rd.samples["crsky_request_duration_seconds_sum"+series]; !(sum > 0) {
		t.Fatalf("_sum = %v, want > 0", sum)
	}

	if v := fams["crsky_cache_hits_total"].samples["crsky_cache_hits_total"]; v != 1 {
		t.Fatalf("crsky_cache_hits_total = %v, want 1", v)
	}
	if v := fams["crsky_requests_total"].samples[`crsky_requests_total{endpoint="query"}`]; v != 3 {
		t.Fatalf("crsky_requests_total{query} = %v, want 3", v)
	}
	if v := fams["crsky_dataset_objects"].samples[`crsky_dataset_objects{dataset="obs",model="sample"}`]; v != float64(w.ds.Len()) {
		t.Fatalf("crsky_dataset_objects = %v, want %d", v, w.ds.Len())
	}
}

// TestHistogramObserveCost keeps the instrumentation budget: recording one
// request into a latency histogram must cost under 1% of the cheapest
// request the server serves, a cache-hit /v1/query, timed in the same run
// so that both sides see the same machine and the same race-detector
// overhead.
func TestHistogramObserveCost(t *testing.T) {
	w := sampleWorkload(t)
	c := newTestClient(t, New(Config{Workers: 2, CacheSize: 16}))
	c.registerSample("h", w.ds)
	req := &QueryRequest{Dataset: "h", Q: w.q, Alpha: 0.5}
	c.post("/v1/query", req, nil, http.StatusOK) // fills the cache
	lat := make([]time.Duration, 51)
	for i := range lat {
		start := time.Now()
		resp := c.post("/v1/query", req, nil, http.StatusOK)
		lat[i] = time.Since(start)
		if got := resp.Header.Get(headerCache); got != "hit" {
			t.Fatalf("cache header = %q, want hit", got)
		}
	}
	slices.Sort(lat)
	median := lat[len(lat)/2]

	var h obs.Histogram
	const observes = 200_000
	start := time.Now()
	for i := 0; i < observes; i++ {
		h.Observe(time.Duration(i%1000) * time.Microsecond)
	}
	perObserve := time.Since(start) / observes
	pct := 100 * float64(perObserve) / float64(median)
	if pct >= 1 {
		t.Fatalf("one Observe costs %v, %.3f%% of the %v median cache-hit query; the budget is 1%%", perObserve, pct, median)
	}
	t.Logf("Observe %v = %.4f%% of the %v median cache-hit /v1/query", perObserve, pct, median)
}

// --- ?trace=1 ---------------------------------------------------------

func spanMap(tj *obs.TraceJSON) map[string]obs.SpanJSON {
	m := map[string]obs.SpanJSON{}
	for _, sp := range tj.Spans {
		m[sp.Name] = sp
	}
	return m
}

func TestTracePropagation(t *testing.T) {
	w := sampleWorkload(t)
	s := New(Config{Workers: 4, CacheSize: 128})
	c := newTestClient(t, s)
	c.registerSample("tr", w.ds)

	// Untraced request: no trace in the envelope.
	var plain QueryResponse
	c.post("/v1/query", &QueryRequest{Dataset: "tr", Q: w.q, Alpha: 0.5, NoCache: true}, &plain, http.StatusOK)
	if plain.Trace != nil {
		t.Fatalf("untraced query carried a trace: %+v", plain.Trace)
	}

	// Traced query: engine stage spans, counters, and disposition labels.
	var qr QueryResponse
	c.post("/v1/query?trace=1", &QueryRequest{Dataset: "tr", Q: w.q, Alpha: 0.5, NoCache: true}, &qr, http.StatusOK)
	if qr.Trace == nil {
		t.Fatal("traced query has no trace")
	}
	spans := spanMap(qr.Trace)
	for _, name := range []string{"pool.wait", "prsq.join", "prsq.exact"} {
		if _, ok := spans[name]; !ok {
			t.Fatalf("span %q missing; got %+v", name, qr.Trace.Spans)
		}
	}
	// Stage spans are sub-intervals of the request: each must fit inside
	// the measured wall time, and the engine stages must be sequential.
	var sum float64
	for _, name := range []string{"prsq.join", "prsq.exact"} {
		sp := spans[name]
		if sp.DurMs < 0 || sp.DurMs > qr.Trace.WallMs {
			t.Fatalf("span %s = %vms outside wall %vms", name, sp.DurMs, qr.Trace.WallMs)
		}
		sum += sp.DurMs
	}
	if sum > qr.Trace.WallMs+1 { // +1ms slack for rounding
		t.Fatalf("sequential spans sum %vms > wall %vms", sum, qr.Trace.WallMs)
	}
	if qr.Trace.Counters["prsq.objects"] != int64(w.ds.Len()) {
		t.Fatalf("prsq.objects counter = %d, want %d", qr.Trace.Counters["prsq.objects"], w.ds.Len())
	}
	if qr.Trace.Counters["rtree.joinNodeAccesses"] <= 0 {
		t.Fatalf("rtree.joinNodeAccesses = %d, want > 0", qr.Trace.Counters["rtree.joinNodeAccesses"])
	}
	if qr.Trace.Labels["cache"] != "bypass" {
		t.Fatalf("cache label = %q, want bypass", qr.Trace.Labels["cache"])
	}

	// Traced explain: refinement stage spans and effort counters.
	var er ExplainResponse
	c.post("/v1/explain?trace=1", &ExplainRequest{Dataset: "tr", Q: w.q, An: w.ids[0], Alpha: 0.5,
		Options: OptionsSpec{MaxCandidates: 64}, NoCache: true}, &er, http.StatusOK)
	if er.Trace == nil {
		t.Fatal("traced explain has no trace")
	}
	espans := spanMap(er.Trace)
	for _, name := range []string{"explain.filter", "explain.search"} {
		if _, ok := espans[name]; !ok {
			t.Fatalf("explain span %q missing; got %+v", name, er.Trace.Spans)
		}
	}
	if er.Trace.Counters["explain.candidates"] != int64(er.Candidates) {
		t.Fatalf("explain.candidates counter = %d, envelope says %d",
			er.Trace.Counters["explain.candidates"], er.Candidates)
	}
	if er.Trace.Counters["explain.subsetsExamined"] != er.SubsetsExamined {
		t.Fatalf("explain.subsetsExamined counter = %d, envelope says %d",
			er.Trace.Counters["explain.subsetsExamined"], er.SubsetsExamined)
	}

	// Traced cache hit: disposition labels but no engine spans (the engine
	// never ran for this request).
	var first, hit QueryResponse
	c.post("/v1/query", &QueryRequest{Dataset: "tr", Q: w.q, Alpha: 0.5}, &first, http.StatusOK)
	resp := c.post("/v1/query?trace=1", &QueryRequest{Dataset: "tr", Q: w.q, Alpha: 0.5}, &hit, http.StatusOK)
	if got := resp.Header.Get(headerCache); got != "hit" {
		t.Fatalf("cache header = %q, want hit", got)
	}
	if hit.Trace == nil {
		t.Fatal("traced cache hit has no trace")
	}
	if hit.Trace.Labels["cache"] != "hit" {
		t.Fatalf("cache label = %q, want hit", hit.Trace.Labels["cache"])
	}
	if len(hit.Trace.Spans) != 0 {
		t.Fatalf("cache hit recorded engine spans: %+v", hit.Trace.Spans)
	}
}

func TestTraceBatchTrailer(t *testing.T) {
	w := sampleWorkload(t)
	s := New(Config{Workers: 4, CacheSize: 128})
	c := newTestClient(t, s)
	c.registerSample("b", w.ds)

	req := &BatchQueryRequest{Dataset: "b", Qs: [][]float64{w.q, w.q}, Alpha: 0.5, NoCache: true}

	// Without ?trace=1 the stream has exactly one line per item.
	resp, raw := c.do(http.MethodPost, "/v2/query", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v2 query: status %d (body %s)", resp.StatusCode, raw)
	}
	plainLines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(plainLines) != 2 {
		t.Fatalf("untraced batch has %d lines, want 2: %s", len(plainLines), raw)
	}

	// With ?trace=1 one trailer line follows, carrying the batch spans.
	resp, raw = c.do(http.MethodPost, "/v2/query?trace=1", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v2 traced query: status %d (body %s)", resp.StatusCode, raw)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("traced batch has %d lines, want 3: %s", len(lines), raw)
	}
	// Item lines identical to the untraced stream.
	for i := range plainLines {
		var a, b BatchQueryItem
		if err := json.Unmarshal(plainLines[i], &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(lines[i], &b); err != nil {
			t.Fatal(err)
		}
		if a.Count != b.Count || len(a.Answers) != len(b.Answers) {
			t.Fatalf("item %d differs with tracing: %+v vs %+v", i, a, b)
		}
	}
	var trailer BatchTraceItem
	if err := json.Unmarshal(lines[len(lines)-1], &trailer); err != nil {
		t.Fatalf("trailer line %s: %v", lines[len(lines)-1], err)
	}
	if trailer.Trace == nil {
		t.Fatal("trailer has no trace")
	}
	spans := spanMap(trailer.Trace)
	for _, name := range []string{"pool.wait", "prsq.join", "prsq.exact"} {
		if _, ok := spans[name]; !ok {
			t.Fatalf("batch span %q missing; got %+v", name, trailer.Trace.Spans)
		}
	}
}

// --- slow-query log ---------------------------------------------------

// syncBuffer is a goroutine-safe bytes.Buffer for the slow-log writer.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestSlowQueryLog(t *testing.T) {
	w := sampleWorkload(t)
	var buf syncBuffer
	// 1ns threshold: every request is "slow", so the log must capture them
	// all, each line carrying the stage trace.
	s := New(Config{Workers: 4, CacheSize: 128, SlowQueryThreshold: time.Nanosecond, SlowQueryLog: &buf})
	c := newTestClient(t, s)
	c.registerSample("slow", w.ds)

	var qr QueryResponse
	c.post("/v1/query", &QueryRequest{Dataset: "slow", Q: w.q, Alpha: 0.5, NoCache: true}, &qr, http.StatusOK)
	if qr.Trace != nil {
		t.Fatal("slow-log-only request leaked a trace into the envelope")
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// registerSample + query = 2 instrumented requests.
	if len(lines) != 2 {
		t.Fatalf("slow log has %d lines, want 2: %q", len(lines), buf.String())
	}
	var ent obs.SlowEntry
	if err := json.Unmarshal([]byte(lines[1]), &ent); err != nil {
		t.Fatalf("slow log line %q: %v", lines[1], err)
	}
	if ent.Route != "/v1/query" || ent.Dataset != "slow" || ent.Model != ModelSample || ent.Outcome != "ok" {
		t.Fatalf("slow entry = %+v", ent)
	}
	if ent.Status != http.StatusOK || ent.DurMs <= 0 {
		t.Fatalf("slow entry status/dur = %d/%v", ent.Status, ent.DurMs)
	}
	if ent.Trace == nil {
		t.Fatal("slow entry has no trace")
	}
	if _, ok := spanMap(ent.Trace)["prsq.join"]; !ok {
		t.Fatalf("slow entry trace lacks engine spans: %+v", ent.Trace.Spans)
	}
	if s.slow.Written() != 2 {
		t.Fatalf("slow.Written() = %d, want 2", s.slow.Written())
	}
}

// --- pool saturation --------------------------------------------------

func TestPoolSaturationStats(t *testing.T) {
	w := sampleWorkload(t)
	s := New(Config{Workers: 1, CacheSize: -1})
	release := make(chan struct{})
	var entered sync.WaitGroup
	entered.Add(1)
	var once sync.Once
	s.computeHook = func(context.Context) {
		once.Do(entered.Done)
		<-release
	}
	c := newTestClient(t, s)
	c.registerSample("pool", w.ds)

	// Occupy the single worker, then stack a second request behind it so
	// the queue-depth gauge must move.
	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		q := append([]float64(nil), w.q...) // distinct points, distinct cache keys
		q[0] += float64(i) * 1e-9
		go func(q []float64) {
			defer wg.Done()
			var qr QueryResponse
			c.post("/v1/query", &QueryRequest{Dataset: "pool", Q: q, Alpha: 0.5, NoCache: true}, &qr, http.StatusOK)
		}(q)
	}
	entered.Wait() // first request holds the slot
	// Wait for the second request to be queued on the semaphore.
	deadline := time.After(5 * time.Second)
	for s.pool.Stats().QueueDepth == 0 {
		select {
		case <-deadline:
			t.Fatal("second request never queued")
		case <-time.After(time.Millisecond):
		}
	}
	ps := s.pool.Stats()
	if ps.InFlight != 1 || ps.QueueDepth != 1 {
		t.Fatalf("saturated pool stats = %+v", ps)
	}
	close(release)
	wg.Wait()

	ps = s.pool.Stats()
	if ps.QueueDepth != 0 || ps.InFlight != 0 {
		t.Fatalf("drained pool stats = %+v", ps)
	}
	if ps.PeakQueueDepth < 1 || ps.PeakInFlight < 1 {
		t.Fatalf("peaks not recorded: %+v", ps)
	}
	if ps.Completed != 2 {
		t.Fatalf("completed = %d, want 2", ps.Completed)
	}
	// The queued request waited on the semaphore, so the wait histogram
	// must have observed a visible wait (p99 covers the slowest).
	if ps.WaitP99Ms <= 0 {
		t.Fatalf("WaitP99Ms = %v, want > 0", ps.WaitP99Ms)
	}
}
