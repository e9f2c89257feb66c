package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

func decodeInto(tb testing.TB, raw []byte, out any) {
	tb.Helper()
	if err := json.Unmarshal(raw, out); err != nil {
		tb.Fatalf("bad JSON %s: %v", raw, err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// --- unit: the controller's arithmetic ---------------------------------

func TestRetryAfterComputed(t *testing.T) {
	s := New(Config{Workers: 1})
	// No queue, no wait history: the floor, never "0".
	if got := s.retryAfter(); got != "1" {
		t.Fatalf("idle retryAfter = %q, want 1", got)
	}

	// 3 queued × ~2s median wait: a computed value, not the old
	// hardcoded "1".
	for i := 0; i < 16; i++ {
		s.pool.wait.Observe(2 * time.Second)
	}
	for i := 0; i < 3; i++ {
		s.pool.queued.Inc()
	}
	secs, err := strconv.Atoi(s.retryAfter())
	if err != nil {
		t.Fatalf("retryAfter not an integer: %v", err)
	}
	if secs < 2 || secs > 30 {
		t.Fatalf("retryAfter = %d, want a few seconds (queue 3 × median ~2s)", secs)
	}

	// A pathological queue is capped, not reported verbatim.
	for i := 0; i < 100; i++ {
		s.pool.queued.Inc()
	}
	if got := s.retryAfter(); got != "30" {
		t.Fatalf("capped retryAfter = %q, want 30", got)
	}
}

func TestQueueCapsOrderClasses(t *testing.T) {
	s := New(Config{Workers: 2, MaxQueue: 8})
	b, e, q := s.queueCap(classBatch), s.queueCap(classExplain), s.queueCap(classQuery)
	if b != 2 || e != 4 || q != 8 {
		t.Fatalf("caps (batch,explain,query) = (%d,%d,%d), want (2,4,8)", b, e, q)
	}
	// Tiny budgets floor at 1 so no class is permanently locked out.
	s2 := New(Config{Workers: 1, MaxQueue: 1})
	if s2.queueCap(classBatch) != 1 {
		t.Fatalf("batch cap with MaxQueue=1 is %d, want floor 1", s2.queueCap(classBatch))
	}
}

func TestAdmitShedsWhenWaitExceedsDeadline(t *testing.T) {
	s := New(Config{Workers: 1})
	// No backlog: even a tight deadline is admitted.
	if err := s.admit(classQuery, time.Millisecond); err != nil {
		t.Fatalf("idle admit: %v", err)
	}
	// Build an estimated wait of seconds, then offer a millisecond budget.
	for i := 0; i < 16; i++ {
		s.pool.wait.Observe(time.Second)
	}
	for i := 0; i < 4; i++ {
		s.pool.queued.Inc()
	}
	err := s.admit(classQuery, 5*time.Millisecond)
	if !errors.Is(err, errShed) {
		t.Fatalf("admit with hopeless deadline = %v, want errShed", err)
	}
	if got := s.shedQuery.Value(); got != 1 {
		t.Fatalf("shedQuery = %d, want 1", got)
	}
	// The same backlog with no deadline still queues.
	if err := s.admit(classQuery, 0); err != nil {
		t.Fatalf("admit without deadline: %v", err)
	}
}

func TestAdmitShedsWhileDraining(t *testing.T) {
	s := New(Config{Workers: 1})
	s.BeginDrain(time.Hour)
	if !s.Draining() {
		t.Fatal("Draining() = false after BeginDrain")
	}
	if err := s.admit(classQuery, 0); !errors.Is(err, errShed) {
		t.Fatalf("admit while draining = %v, want errShed", err)
	}
	select {
	case <-s.drainCtx.Done():
		t.Fatal("drain context canceled before the grace period")
	default:
	}

	s2 := New(Config{Workers: 1})
	s2.BeginDrain(0)
	select {
	case <-s2.drainCtx.Done():
	case <-time.After(time.Second):
		t.Fatal("zero-grace drain did not cancel the drain context")
	}
}

func TestPriorityFromHeader(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/v1/explain", nil)
	if got := priorityFrom(r, classExplain); got != classExplain {
		t.Fatalf("default class = %v, want explain", got)
	}
	r.Header.Set(headerPriority, "Batch")
	if got := priorityFrom(r, classExplain); got != classBatch {
		t.Fatalf("header override = %v, want batch", got)
	}
	r.Header.Set(headerPriority, "nonsense")
	if got := priorityFrom(r, classQuery); got != classQuery {
		t.Fatalf("bad header = %v, want the endpoint default", got)
	}
}

// --- end-to-end: overload sheds with a computed Retry-After -------------

func TestServerShedsUnderOverload(t *testing.T) {
	w := sampleWorkload(t)
	s := New(Config{Workers: 1, MaxQueue: 2, CacheSize: -1})
	block := make(chan struct{})
	s.computeHook = func(context.Context) { <-block }
	c := newTestClient(t, s)
	c.registerSample("lUrU", w.ds)

	// Launch requests one at a time, waiting for each to reach a terminal
	// admission state (executing, queued, or shed) so the outcome is
	// deterministic: 1 executes, 2 queue (query cap = MaxQueue = 2), 3 shed.
	const total = 6
	var wg sync.WaitGroup
	codes := make(chan int, total)
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := []float64{w.q[0] + float64(i)*1e-7, w.q[1]}
			resp, _ := c.do(http.MethodPost, "/v1/query", &QueryRequest{
				Dataset: "lUrU", Q: q, Alpha: 0.5, NoCache: true})
			if resp.StatusCode == http.StatusServiceUnavailable {
				ra := resp.Header.Get("Retry-After")
				if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
					t.Errorf("503 Retry-After = %q, want an integer >= 1", ra)
				}
			}
			codes <- resp.StatusCode
		}(i)
		launched := int64(i + 1)
		waitFor(t, "request to settle", func() bool {
			ps := s.pool.Stats()
			shed := s.shedQuery.Value()
			return ps.InFlight+ps.QueueDepth+shed >= launched
		})
	}
	close(block)
	wg.Wait()
	close(codes)

	var ok, shed int
	for code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			shed++
		default:
			t.Fatalf("unexpected status %d under overload (want only 200 or 503)", code)
		}
	}
	if ok != 3 || shed != 3 {
		t.Fatalf("ok=%d shed=%d, want 3 and 3", ok, shed)
	}

	var st StatsResponse
	c.mustGet("/v1/stats", &st)
	if st.Admission.ShedQuery != 3 {
		t.Fatalf("stats shedQuery = %d, want 3", st.Admission.ShedQuery)
	}
	if st.Pool.InFlight != 0 || st.Pool.QueueDepth != 0 {
		t.Fatalf("pool not drained after overload: %+v", st.Pool)
	}

	// Recovered capacity serves again.
	s.computeHook = nil
	var qr QueryResponse
	c.post("/v1/query", &QueryRequest{Dataset: "lUrU", Q: w.q, Alpha: 0.5}, &qr, http.StatusOK)
}

// mustGet fetches a JSON endpoint into out.
func (c *testClient) mustGet(path string, out any) {
	c.tb.Helper()
	resp, raw := c.do(http.MethodGet, path, nil)
	if resp.StatusCode != http.StatusOK {
		c.tb.Fatalf("GET %s: %d (%s)", path, resp.StatusCode, raw)
	}
	decodeInto(c.tb, raw, out)
}

// --- end-to-end: panic containment -------------------------------------

func TestPanicRecoveredAndCounted(t *testing.T) {
	w := sampleWorkload(t)
	s := New(Config{Workers: 2, CacheSize: -1})
	s.computeHook = func(context.Context) { panic("kaboom") }
	c := newTestClient(t, s)
	c.registerSample("lUrU", w.ds)

	// v2: the panic unwinds from the pool slot to the middleware.
	resp, raw := c.do(http.MethodPost, "/v2/query", &BatchQueryRequest{
		Dataset: "lUrU", Qs: [][]float64{w.q}, Alpha: 0.5, NoCache: true})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("v2 panic: status %d, want 500 (body %s)", resp.StatusCode, raw)
	}
	var e ErrorResponse
	decodeInto(t, raw, &e)
	if e.Error == "" {
		t.Fatal("panic 500 carries no error envelope")
	}

	// v1, a batch of one, unwinds the same way.
	resp2, _ := c.do(http.MethodPost, "/v1/query", &QueryRequest{
		Dataset: "lUrU", Q: w.q, Alpha: 0.5, NoCache: true})
	if resp2.StatusCode != http.StatusInternalServerError {
		t.Fatalf("v1 panic: status %d, want 500", resp2.StatusCode)
	}

	if got := s.panics.Value(); got != 2 {
		t.Fatalf("panics counter = %d, want 2", got)
	}
	if ps := s.pool.Stats(); ps.InFlight != 0 || ps.QueueDepth != 0 {
		t.Fatalf("pool slot leaked across panic: %+v", ps)
	}

	// The process survives and serves normally afterwards.
	s.computeHook = nil
	var qr QueryResponse
	c.post("/v1/query", &QueryRequest{Dataset: "lUrU", Q: w.q, Alpha: 0.5, NoCache: true},
		&qr, http.StatusOK)
}
