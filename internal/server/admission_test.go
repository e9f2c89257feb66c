package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/crsky/crsky"
	"github.com/crsky/crsky/internal/dataset"
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

// --- end-to-end: the approximate tier ----------------------------------

// undecidedWorkload registers a dataset/query pair whose filter bounds leave
// Monte Carlo work to do (the sampleWorkload is fully bound-decided at its
// canonical q, which would make the approximate tier trivially exact).
func undecidedWorkload(t *testing.T, c *testClient, name string) []float64 {
	t.Helper()
	ds, err := dataset.GenerateUncertain(dataset.LUrU(400, 2, 50, 900, 23))
	if err != nil {
		t.Fatal(err)
	}
	c.registerSample(name, ds)
	return []float64{5000, 5000}
}

func TestQueryApproxAlways(t *testing.T) {
	s := New(Config{Workers: 2})
	c := newTestClient(t, s)
	q := undecidedWorkload(t, c, "lUrU")

	req := &QueryRequest{Dataset: "lUrU", Q: q, Alpha: 0.5, Approx: "always", Epsilon: 0.03}
	var qr QueryResponse
	resp := c.post("/v1/query", req, &qr, http.StatusOK)
	if got := resp.Header.Get(headerCache); got != "bypass" {
		t.Fatalf("approx response cache header %q, want bypass (never cached)", got)
	}
	if !qr.Approx {
		t.Fatalf("approx=always response not marked approximate: %+v", qr)
	}
	if len(qr.Intervals) == 0 {
		t.Fatal("approximate response carries no confidence intervals")
	}
	if qr.Epsilon != 0.03 || qr.Confidence != 0.95 {
		t.Fatalf("error budget echoed as (%g, %g), want (0.03, 0.95)", qr.Epsilon, qr.Confidence)
	}
	// Hoeffding at eps=0.03, delta=0.05 needs ~2050 iterations.
	if qr.Iters < 1000 {
		t.Fatalf("iters = %d, too few for eps=0.03", qr.Iters)
	}
	for _, iv := range qr.Intervals {
		if !(0 <= iv.Lo && iv.Lo <= iv.Pr && iv.Pr <= iv.Hi && iv.Hi <= 1) {
			t.Fatalf("malformed interval %+v", iv)
		}
		if iv.Hi-iv.Lo > 2*0.03+1e-9 {
			t.Fatalf("interval %+v wider than 2*epsilon", iv)
		}
	}
	for i := 1; i < len(qr.Answers); i++ {
		if qr.Answers[i-1] >= qr.Answers[i] {
			t.Fatalf("answers not ascending: %v", qr.Answers)
		}
	}

	// Seeded sampling: the same request is deterministic.
	var qr2 QueryResponse
	c.post("/v1/query", req, &qr2, http.StatusOK)
	if len(qr2.Answers) != len(qr.Answers) || len(qr2.Intervals) != len(qr.Intervals) {
		t.Fatalf("approx response not deterministic: %d/%d answers, %d/%d intervals",
			len(qr.Answers), len(qr2.Answers), len(qr.Intervals), len(qr2.Intervals))
	}
	for i := range qr.Intervals {
		if qr.Intervals[i] != qr2.Intervals[i] {
			t.Fatalf("interval %d differs across identical requests: %+v vs %+v",
				i, qr.Intervals[i], qr2.Intervals[i])
		}
	}

	var st StatsResponse
	c.mustGet("/v1/stats", &st)
	if st.Requests.Approx < 2 {
		t.Fatalf("approx counter = %d, want >= 2", st.Requests.Approx)
	}
	if st.ApproxPool.Completed < 2 {
		t.Fatalf("approx pool completed = %d, want >= 2", st.ApproxPool.Completed)
	}
}

func TestQueryApproxAutoFallsBackWhenShed(t *testing.T) {
	s := New(Config{Workers: 1, MaxQueue: 1, CacheSize: -1, ApproxWorkers: 1})
	block := make(chan struct{})
	s.computeHook = func(context.Context) { <-block }
	defer close(block)
	c := newTestClient(t, s)
	q := undecidedWorkload(t, c, "lUrU")

	done := make(chan struct{}, 2)
	// Saturate the exact tier: one request holds the only slot, one fills
	// the query class's whole queue budget.
	go func() {
		c.do(http.MethodPost, "/v1/query", &QueryRequest{
			Dataset: "lUrU", Q: []float64{q[0] + 1, q[1]}, Alpha: 0.5, NoCache: true})
		done <- struct{}{}
	}()
	waitFor(t, "slot occupied", func() bool { return s.pool.Stats().InFlight == 1 })
	go func() {
		c.do(http.MethodPost, "/v1/query", &QueryRequest{
			Dataset: "lUrU", Q: []float64{q[0] + 2, q[1]}, Alpha: 0.5, NoCache: true})
		done <- struct{}{}
	}()
	waitFor(t, "queue filled", func() bool { return s.pool.Stats().QueueDepth == 1 })

	// An auto request now sheds from the exact tier and must come back 200
	// from the reserved approximate pool instead of 503.
	var qr QueryResponse
	resp := c.post("/v1/query", &QueryRequest{
		Dataset: "lUrU", Q: q, Alpha: 0.5, NoCache: true, Approx: "auto"}, &qr, http.StatusOK)
	if got := resp.Header.Get(headerCache); got != "bypass" {
		t.Fatalf("fallback response cache header %q, want bypass", got)
	}
	if !qr.Approx {
		t.Fatalf("fallback answer not marked approximate: %+v", qr)
	}
	if s.shedQuery.Value() < 1 {
		t.Fatal("exact tier never shed — the fallback was not exercised")
	}
	if s.approxAnswers.Value() != 1 {
		t.Fatalf("approxAnswers = %d, want 1", s.approxAnswers.Value())
	}

	// A never-mode request in the same state stays a plain 503.
	resp2, _ := c.do(http.MethodPost, "/v1/query", &QueryRequest{
		Dataset: "lUrU", Q: []float64{q[0] + 3, q[1]}, Alpha: 0.5, NoCache: true})
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("exact-only request under overload: %d, want 503", resp2.StatusCode)
	}

	block <- struct{}{}
	block <- struct{}{}
	<-done
	<-done
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

// stageBudgetRecorder records, per call, whether the exact batch and the
// approximate query ran under QueryOptions.StageBudget; with failExact set
// the exact batch fails with a deadline error before it starts, the
// capacity failure that sends approx=auto to its fallback.
type stageBudgetRecorder struct {
	crsky.Explainer
	failExact atomic.Bool
	mu        sync.Mutex
	calls     []string
}

func (r *stageBudgetRecorder) record(call string, opts crsky.QueryOptions) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls = append(r.calls, call+" StageBudget="+strconv.FormatBool(opts.StageBudget))
}

func (r *stageBudgetRecorder) take() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	calls := r.calls
	r.calls = nil
	return calls
}

func (r *stageBudgetRecorder) QueryBatchStream(ctx context.Context, qs []crsky.Point, alpha float64,
	opts crsky.QueryOptions, emit func(int, []int)) ([][]int, crsky.QueryStats, error) {

	r.record("exact", opts)
	if r.failExact.Load() {
		return nil, crsky.QueryStats{}, context.DeadlineExceeded
	}
	return r.Explainer.QueryBatchStream(ctx, qs, alpha, opts, emit)
}

func (r *stageBudgetRecorder) QueryApprox(ctx context.Context, q crsky.Point, alpha float64,
	opts crsky.QueryOptions, ap crsky.ApproxOptions) (*crsky.ApproxResult, crsky.QueryStats, error) {

	r.record("approx", opts)
	return r.Explainer.QueryApprox(ctx, q, alpha, opts, ap)
}

// TestStageBudgetOnlyOnAutoExactAttempt pins which queries cut their join
// at half the remaining deadline: only the exact attempt of approx=auto,
// which has a fallback to leave time for. An approx=never query, an
// approx=always query and auto's fallback have nothing to fall back to, so
// each runs on the whole ?timeout=, on /v1 and /v2 alike.
func TestStageBudgetOnlyOnAutoExactAttempt(t *testing.T) {
	w := sampleWorkload(t)
	rec := &stageBudgetRecorder{}
	s := New(Config{WrapEngine: func(e crsky.Explainer) crsky.Explainer {
		rec.Explainer = e
		return rec
	}})
	c := newTestClient(t, s)
	c.registerSample("demo", w.ds)

	for _, tc := range []struct {
		approx    string
		failExact bool
		want      []string
	}{
		{"never", false, []string{"exact StageBudget=false"}},
		{"always", false, []string{"approx StageBudget=false"}},
		{"auto", false, []string{"exact StageBudget=true"}},
		{"auto", true, []string{"exact StageBudget=true", "approx StageBudget=false"}},
	} {
		rec.failExact.Store(tc.failExact)
		for _, path := range []string{"/v1/query", "/v2/query"} {
			var req any = &QueryRequest{Dataset: "demo", Q: w.q, Alpha: 0.5, NoCache: true, Approx: tc.approx}
			if path == "/v2/query" {
				req = &BatchQueryRequest{Dataset: "demo", Qs: [][]float64{w.q}, Alpha: 0.5, NoCache: true, Approx: tc.approx}
			}
			resp, raw := c.do(http.MethodPost, path+"?timeout=30s", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s approx=%s failExact=%v: status %d (%s)", path, tc.approx, tc.failExact, resp.StatusCode, raw)
			}
			if got := rec.take(); !slices.Equal(got, tc.want) {
				t.Fatalf("%s approx=%s failExact=%v: engine calls %q, want %q", path, tc.approx, tc.failExact, got, tc.want)
			}
		}
	}
}
