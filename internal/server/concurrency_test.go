package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	crsky "github.com/crsky/crsky"
	"github.com/crsky/crsky/internal/stats"
)

// TestServerConcurrentExplain is the serving acceptance test: 32 parallel
// explain requests — a mix of identical and distinct — must all return the
// library's direct ExplainCtx output, pass verification, and exercise the
// cache (≥ 1 hit).
func TestServerConcurrentExplain(t *testing.T) {
	w := sampleWorkload(t)
	if len(w.ids) < 4 {
		t.Fatalf("workload has %d non-answers, need 4", len(w.ids))
	}
	ans := w.ids[:4]

	s := New(Config{Workers: 8, CacheSize: 256})
	// Hold every computation open long enough that the parallel callers
	// of the same key overlap: each computes on its own, and every
	// response must still be byte-identical.
	s.computeHook = func(context.Context) { time.Sleep(100 * time.Millisecond) }
	c := newTestClient(t, s)
	c.registerSample("lUrU", w.ds)

	// Ground truth from the library, computed up front.
	want := make(map[int][]byte)
	for _, an := range ans {
		direct, err := w.eng.ExplainCtx(context.Background(), an, w.q, 0.5, OptionsSpec{MaxCandidates: 64}.toOptions())
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(causesJSON(direct.Causes))
		if err != nil {
			t.Fatal(err)
		}
		want[an] = raw
	}

	const parallel = 32 // 8 goroutines per non-answer: identical within a key, distinct across keys
	var (
		start = make(chan struct{})
		wg    sync.WaitGroup
		mu    sync.Mutex
		fails []string
	)
	bodies := make([][]byte, parallel)
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			an := ans[i%len(ans)]
			req := &ExplainRequest{Dataset: "lUrU", Q: w.q, An: an, Alpha: 0.5,
				Options: OptionsSpec{MaxCandidates: 64}, Verify: true}
			resp, raw := c.do(http.MethodPost, "/v1/explain", req)
			mu.Lock()
			defer mu.Unlock()
			bodies[i] = raw
			if resp.StatusCode != http.StatusOK {
				fails = append(fails, string(raw))
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if len(fails) > 0 {
		t.Fatalf("%d of %d requests failed, first: %s", len(fails), parallel, fails[0])
	}

	// Every response matches the direct library output and verifies —
	// both server-side (verified flag) and client-side.
	for i, raw := range bodies {
		var er ExplainResponse
		if err := json.Unmarshal(raw, &er); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		an := ans[i%len(ans)]
		if er.NonAnswer != an || !er.Verified {
			t.Fatalf("response %d: nonAnswer=%d verified=%t", i, er.NonAnswer, er.Verified)
		}
		got, err := json.Marshal(er.Causes)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[an]) {
			t.Fatalf("response %d causes = %s, want %s", i, got, want[an])
		}
		if err := w.eng.VerifyCtx(context.Background(), w.q, 0.5, resultFromResponse(&er)); err != nil {
			t.Fatalf("response %d fails verify: %v", i, err)
		}
		// Identical requests must produce byte-identical responses
		// regardless of whether they were computed or served from cache.
		if prev := bodies[i%len(ans)]; !bytes.Equal(raw, prev) {
			t.Fatalf("response %d differs from response %d for the same request:\n%s\n%s",
				i, i%len(ans), raw, prev)
		}
	}

	// One more identical request is a guaranteed cache hit.
	req := &ExplainRequest{Dataset: "lUrU", Q: w.q, An: ans[0], Alpha: 0.5,
		Options: OptionsSpec{MaxCandidates: 64}, Verify: true}
	resp, raw := c.do(http.MethodPost, "/v1/explain", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up explain: %d %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get(headerCache); got != "hit" {
		t.Fatalf("follow-up explain cache header = %q, want hit", got)
	}
	if !bytes.Equal(raw, bodies[0]) {
		t.Fatalf("cached follow-up differs from original:\n%s\n%s", raw, bodies[0])
	}

	// Stats must show the cache work: at least one request was served
	// from cache.
	var st StatsResponse
	stResp, stRaw := c.do(http.MethodGet, "/v1/stats", nil)
	if stResp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", stResp.StatusCode)
	}
	if err := json.Unmarshal(stRaw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits < 1 {
		t.Errorf("cache hits = %d, want >= 1", st.Cache.Hits)
	}
	if st.Pool.PeakInFlight > int64(s.cfg.Workers) {
		t.Errorf("peak in-flight %d exceeds worker bound %d", st.Pool.PeakInFlight, s.cfg.Workers)
	}
	if st.Requests.Explain != parallel+1 {
		t.Errorf("explain request count = %d, want %d", st.Requests.Explain, parallel+1)
	}
	if len(st.Datasets) != 1 || st.Datasets[0].NodeAccesses < 1 {
		t.Errorf("dataset stats = %+v, want one dataset with node accesses", st.Datasets)
	}
}

// countingEngine counts the ExplainCtx calls that reach an engine and how
// many of them ran at once.
type countingEngine struct {
	crsky.Explainer
	calls   atomic.Int64
	running stats.Gauge
}

func (e *countingEngine) ExplainCtx(ctx context.Context, id int, q crsky.Point, alpha float64, opts crsky.Options) (*crsky.Explanation, error) {
	e.calls.Add(1)
	e.running.Inc()
	defer e.running.Dec()
	// Hold the call open long enough that two concurrent calls overlap.
	time.Sleep(time.Millisecond)
	return e.Explainer.ExplainCtx(ctx, id, q, alpha, opts)
}

// TestServerWorkerPoolBounds floods a one-worker server and asserts the
// pool never runs computations concurrently: neither requests, nor the
// items of a /v2/explain batch.
func TestServerWorkerPoolBounds(t *testing.T) {
	w := sampleWorkload(t)
	// MaxQueue is raised past the flood size so admission control (whose
	// explain-class cap is MaxQueue/2) admits all 12: this test bounds the
	// pool, the admission tests bound the queue.
	s := New(Config{Workers: 1, CacheSize: -1, MaxQueue: 64})
	s.computeHook = func(context.Context) { time.Sleep(2 * time.Millisecond) }
	c := newTestClient(t, s)
	c.registerSample("lUrU", w.ds)

	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct q per request, so the cache cannot answer any
			// of them and every request really goes through the pool.
			q := []float64{w.q[0] + float64(i)*1e-7, w.q[1]}
			c.do(http.MethodPost, "/v1/explain", &ExplainRequest{
				Dataset: "lUrU", Q: q, An: w.ids[0], Alpha: 0.5,
				Options: OptionsSpec{MaxCandidates: 64}})
		}(i)
	}
	wg.Wait()

	if peak := s.pool.inflight.Peak(); peak != 1 {
		t.Fatalf("peak in-flight = %d, want 1", peak)
	}
	if done := s.pool.completed.Value(); done != 12 {
		t.Fatalf("completed = %d, want 12", done)
	}

	// Two concurrent 8-item batches: every item reaches the engine's
	// ExplainCtx, one at a time, on the slot that admitted its batch.
	eng := &countingEngine{}
	s = New(Config{Workers: 1, CacheSize: -1, WrapEngine: func(e crsky.Explainer) crsky.Explainer {
		eng.Explainer = e
		return eng
	}})
	c = newTestClient(t, s)
	c.registerSample("lUrU", w.ds)
	for b := 0; b < 2; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			items := make([]BatchExplainItemRequest, 8)
			for k := range items {
				items[k] = BatchExplainItemRequest{Q: []float64{w.q[0] + float64(b*8+k)*1e-7, w.q[1]}, An: w.ids[0]}
			}
			resp, raw := c.do(http.MethodPost, "/v2/explain", &BatchExplainRequest{Dataset: "lUrU", Items: items,
				Alpha: 0.5, Options: OptionsSpec{MaxCandidates: 64}, NoCache: true})
			if n := bytes.Count(raw, []byte("\n")); resp.StatusCode != http.StatusOK || n != len(items) {
				t.Errorf("batch %d: status %d, %d lines, want 200 and %d lines", b, resp.StatusCode, n, len(items))
			}
		}(b)
	}
	wg.Wait()
	if calls, peak := eng.calls.Load(), eng.running.Peak(); calls != 16 || peak != 1 {
		t.Fatalf("ExplainCtx: %d calls, %d at once at the peak; want 16 calls, one at a time", calls, peak)
	}
	if peak := s.pool.inflight.Peak(); peak != 1 {
		t.Fatalf("peak in-flight = %d, want 1", peak)
	}
}
