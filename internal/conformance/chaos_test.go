package conformance

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	crsky "github.com/crsky/crsky"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/faultinject"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/server"
)

// The chaos harness: a real HTTP server with a deterministic fault injector
// wired into its worker pools (delayed slots) and its engine (injected
// errors and panics), hammered by concurrent mixed traffic that also
// misbehaves client-side — canceled requests and slow NDJSON consumers.
// The assertions are the service's overload/fault contract:
//
//   - every response is 200, an expected client error, 500 (only when the
//     injector actually fired), or 503 with an integer Retry-After >= 1;
//   - every 200 exact answer matches the naive oracle — faults may fail a
//     request, never corrupt one;
//   - afterwards both pools are fully drained (no slot leaks, no deadlock)
//     and a fresh request still answers exactly.

type chaosStats struct {
	ok, approx, shed, injected, clientErr, canceled atomic.Int64
}

func chaosPost(ts *httptest.Server, ctx context.Context, path string, body any, slowRead bool) (*http.Response, []byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+path, bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if slowRead {
		// A misbehaving consumer: drain the NDJSON stream a few bytes at a
		// time so the handler experiences backpressure mid-response.
		chunk := make([]byte, 7)
		for {
			n, rerr := resp.Body.Read(chunk)
			buf.Write(chunk[:n])
			if rerr != nil {
				if rerr == io.EOF {
					break
				}
				return resp, buf.Bytes(), rerr
			}
			time.Sleep(50 * time.Microsecond)
		}
	} else if _, err := io.Copy(&buf, resp.Body); err != nil {
		return resp, buf.Bytes(), err
	}
	return resp, buf.Bytes(), nil
}

func TestChaosServingConformance(t *testing.T) {
	const seed = 4242
	w := newSampleWorkload(t, seed)
	oracleEng, err := crsky.NewEngine(w.ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	alpha := w.alphas[0]
	oracle := make(map[string][]int, len(w.qs))
	for _, q := range w.qs {
		oracle[fmt.Sprint([]float64(q))] = oracleEng.ProbabilisticReverseSkylineNaive(q, alpha)
	}
	// A non-answer for the explain traffic.
	an := -1
	inAns := map[int]bool{}
	for _, id := range oracle[fmt.Sprint([]float64(w.qs[0]))] {
		inAns[id] = true
	}
	for id := 0; id < w.ds.Len(); id++ {
		if !inAns[id] {
			an = id
			break
		}
	}

	in := faultinject.New(faultinject.Config{
		Seed:         seed,
		SlotDelayP:   0.30,
		SlotDelayMax: 2 * time.Millisecond,
		ErrP:         0.12,
		PanicP:       0.04,
	})
	srv := server.New(server.Config{
		Workers: 2, ApproxWorkers: 1, MaxQueue: 3, CacheSize: 64,
		Faults:     in,
		WrapEngine: func(e crsky.Explainer) crsky.Explainer { return faultinject.Wrap(e, in) },
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	chaosRegister(t, ts, w.ds)

	var st chaosStats
	var wg sync.WaitGroup
	const clients, perClient = 8, 24
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(g)*1000))
			for i := 0; i < perClient; i++ {
				q := w.qs[rng.Intn(len(w.qs))]
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if rng.Float64() < 0.15 {
					// Client gives up almost immediately.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+rng.Intn(4))*time.Millisecond)
				}
				kind := rng.Intn(10)
				var (
					resp *http.Response
					body []byte
					err  error
				)
				switch {
				case kind < 5: // v1 query, all approx modes
					mode := []string{"", "never", "auto", "always"}[rng.Intn(4)]
					resp, body, err = chaosPost(ts, ctx, "/v1/query", &server.QueryRequest{
						Dataset: "chaos", Q: q, Alpha: alpha,
						NoCache: rng.Intn(2) == 0, Approx: mode,
					}, false)
				case kind < 8: // v2 batch, sometimes consumed slowly
					resp, body, err = chaosPost(ts, ctx, "/v2/query", &server.BatchQueryRequest{
						Dataset: "chaos", Qs: [][]float64{w.qs[0], w.qs[1]}, Alpha: alpha,
						NoCache: rng.Intn(2) == 0,
					}, rng.Intn(2) == 0)
				default: // v1 explain of a known non-answer
					resp, body, err = chaosPost(ts, ctx, "/v1/explain", &server.ExplainRequest{
						Dataset: "chaos", Q: w.qs[0], An: an, Alpha: alpha,
						Options: server.OptionsSpec{MaxCandidates: 48},
						NoCache: rng.Intn(2) == 0,
					}, false)
				}
				cancel()
				if err != nil {
					// The only allowed transport failure is the cancellation
					// this client itself caused.
					if ctx.Err() == nil {
						t.Errorf("client %d req %d: transport error without client cancel: %v", g, i, err)
						return
					}
					st.canceled.Add(1)
					continue
				}
				switch {
				case resp.StatusCode == http.StatusOK:
					st.ok.Add(1)
					if resp.Request.URL.Path == "/v1/query" {
						var qr server.QueryResponse
						if err := json.Unmarshal(body, &qr); err != nil {
							t.Errorf("bad 200 body: %v (%s)", err, body)
							return
						}
						if qr.Approx {
							st.approx.Add(1)
							for _, iv := range qr.Intervals {
								if !(0 <= iv.Lo && iv.Lo <= iv.Pr && iv.Pr <= iv.Hi && iv.Hi <= 1) {
									t.Errorf("malformed interval %+v", iv)
									return
								}
							}
						} else if want := oracle[fmt.Sprint([]float64(q))]; !equalIDs(qr.Answers, want) {
							t.Errorf("chaos corrupted an exact answer: q=%v got %v want %v", q, qr.Answers, want)
							return
						}
					}
				case resp.StatusCode == http.StatusServiceUnavailable:
					st.shed.Add(1)
					ra := resp.Header.Get("Retry-After")
					if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
						t.Errorf("503 with Retry-After %q, want integer >= 1", ra)
						return
					}
				case resp.StatusCode == http.StatusInternalServerError:
					st.injected.Add(1)
					var e server.ErrorResponse
					if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
						t.Errorf("malformed 500 body %s", body)
						return
					}
				case resp.StatusCode >= 400 && resp.StatusCode < 500:
					// Explain may legitimately reject (e.g. candidate budget);
					// the envelope must still be well-formed.
					st.clientErr.Add(1)
					var e server.ErrorResponse
					if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
						t.Errorf("malformed %d body %s", resp.StatusCode, body)
						return
					}
				default:
					t.Errorf("unexpected status %d (body %s)", resp.StatusCode, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// No slot leaks, no deadlock: both pools fully drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var sr server.StatsResponse
		resp, raw, err := chaosGet(ts, "/v1/stats")
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("stats: %v %v", err, resp)
		}
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Pool.InFlight == 0 && sr.Pool.QueueDepth == 0 &&
			sr.ApproxPool.InFlight == 0 && sr.ApproxPool.QueueDepth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pools did not drain after chaos: %+v / %+v", sr.Pool, sr.ApproxPool)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// 500s are only acceptable if the injector actually fired.
	counts := in.Counts()
	if st.injected.Load() > 0 && counts.Errors+counts.Panics == 0 {
		t.Fatalf("saw %d 500s but the injector never fired", st.injected.Load())
	}
	t.Logf("chaos: ok=%d approx=%d shed=%d injected5xx=%d clientErr=%d canceled=%d faults=%+v",
		st.ok.Load(), st.approx.Load(), st.shed.Load(), st.injected.Load(),
		st.clientErr.Load(), st.canceled.Load(), counts)

	// The server still answers exactly after the storm (retrying past the
	// injector's ongoing faults).
	want := oracle[fmt.Sprint([]float64(w.qs[0]))]
	for attempt := 0; ; attempt++ {
		resp, body, err := chaosPost(ts, context.Background(), "/v1/query", &server.QueryRequest{
			Dataset: "chaos", Q: w.qs[0], Alpha: alpha, NoCache: true}, false)
		if err == nil && resp.StatusCode == http.StatusOK {
			var qr server.QueryResponse
			if err := json.Unmarshal(body, &qr); err != nil {
				t.Fatal(err)
			}
			if !equalIDs(qr.Answers, want) {
				t.Fatalf("post-chaos answer %v, want %v", qr.Answers, want)
			}
			break
		}
		if attempt > 50 {
			t.Fatalf("no successful query in 50 post-chaos attempts (last: %v %v %s)", err, resp, body)
		}
	}
}

// chaosRegister registers ds as the sample dataset "chaos" over HTTP, like
// any client.
func chaosRegister(t *testing.T, ts *httptest.Server, ds *dataset.Uncertain) {
	t.Helper()
	specs := make([]server.ObjectSpec, ds.Len())
	for i, o := range ds.Objects {
		ss := make([]server.SampleSpec, len(o.Samples))
		for j, s := range o.Samples {
			ss[j] = server.SampleSpec{P: s.P, Loc: s.Loc}
		}
		specs[i] = server.ObjectSpec{Samples: ss}
	}
	resp, raw, err := chaosPost(ts, context.Background(), "/v1/datasets",
		&server.DatasetRequest{Name: "chaos", Model: server.ModelSample, Objects: specs}, false)
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: %v status=%v body=%s", err, resp, raw)
	}
}

func chaosGet(ts *httptest.Server, path string) (*http.Response, []byte, error) {
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp, raw, err
}

// TestChaosExplainFaultsPerItem asserts the injector's "explain" fault
// reaches explain batches one item at a time: a faulted item fails alone
// with an injected-failure line, while its siblings' lines and the emit
// order are byte-identical to a fault-free server's. With every draw
// faulting, /v2/explain still answers 200 with one injected-failure line
// per item, and /v1/explain, a batch of one, answers 500.
func TestChaosExplainFaultsPerItem(t *testing.T) {
	const seed = 4243
	w := newSampleWorkload(t, seed)
	oracleEng, err := crsky.NewEngine(w.ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	q, alpha := w.qs[0], w.alphas[0]
	inAns := map[int]bool{}
	for _, id := range oracleEng.ProbabilisticReverseSkylineNaive(q, alpha) {
		inAns[id] = true
	}
	var items []server.BatchExplainItemRequest
	for id := 0; id < w.ds.Len() && len(items) < 8; id++ {
		if !inAns[id] {
			items = append(items, server.BatchExplainItemRequest{Q: q, An: id})
		}
	}
	if len(items) < 2 {
		t.Fatalf("%v: only %d non-answers", w, len(items))
	}
	// serve starts a server whose engine faults with probability errP
	// (never when errP is 0) and registers the workload on it.
	serve := func(errP float64) *httptest.Server {
		cfg := server.Config{Workers: 2, CacheSize: 64}
		if errP > 0 {
			in := faultinject.New(faultinject.Config{Seed: seed, ErrP: errP})
			cfg.WrapEngine = func(e crsky.Explainer) crsky.Explainer { return faultinject.Wrap(e, in) }
		}
		ts := httptest.NewServer(server.New(cfg).Handler())
		t.Cleanup(ts.Close)
		chaosRegister(t, ts, w.ds)
		return ts
	}
	batch := &server.BatchExplainRequest{Dataset: "chaos", Items: items, Alpha: alpha, NoCache: true,
		Options: server.OptionsSpec{MaxCandidates: 48}}
	lines := func(ts *httptest.Server) []string {
		t.Helper()
		resp, raw, err := chaosPost(ts, context.Background(), "/v2/explain", batch, false)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("/v2/explain: %v status=%v body=%s", err, resp, raw)
		}
		ls := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
		if len(ls) != len(items) {
			t.Fatalf("/v2/explain: %d lines for %d items: %s", len(ls), len(items), raw)
		}
		return ls
	}
	injectedLine := func(i int, line string) bool {
		var it server.BatchExplainItem
		if err := json.Unmarshal([]byte(line), &it); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if it.Index != i {
			t.Fatalf("line %d carries index %d: emit order changed", i, it.Index)
		}
		return it.Explain == nil && strings.Contains(it.Error, "injected failure")
	}

	// The injector draws once per item, in request order, so a replay of
	// its schedule names the items that fail.
	replay := faultinject.New(faultinject.Config{Seed: seed, ErrP: 0.5})
	faulted := make([]bool, len(items))
	var nFaulted int
	for i := range items {
		if faulted[i] = replay.Err("explain") != nil; faulted[i] {
			nFaulted++
		}
	}
	if nFaulted == 0 || nFaulted == len(items) {
		t.Fatalf("seed %d faults %d of %d items; pick a seed that mixes both", seed, nFaulted, len(items))
	}
	clean := lines(serve(0))
	for i, line := range lines(serve(0.5)) {
		switch {
		case faulted[i] && !injectedLine(i, line):
			t.Errorf("item %d was drawn to fault but answered %s", i, line)
		case !faulted[i] && line != clean[i]:
			t.Errorf("item %d: a sibling's fault changed its line\n got: %s\nwant: %s", i, line, clean[i])
		}
	}

	always := serve(1)
	for i, line := range lines(always) {
		if !injectedLine(i, line) {
			t.Errorf("item %d escaped an injector that faults every draw: %s", i, line)
		}
	}
	resp, raw, err := chaosPost(always, context.Background(), "/v1/explain", &server.ExplainRequest{
		Dataset: "chaos", Q: q, An: items[0].An, Alpha: alpha, NoCache: true,
		Options: server.OptionsSpec{MaxCandidates: 48}}, false)
	if err != nil {
		t.Fatal(err)
	}
	var e server.ErrorResponse
	if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal(raw, &e) != nil ||
		!strings.Contains(e.Error, "injected failure") {
		t.Fatalf("/v1/explain under a fault on every draw: status %d body %s, want a 500 injected failure", resp.StatusCode, raw)
	}
}

// TestChaosOverloadContract saturates a deliberately tiny server: one exact
// worker behind a two-deep admission queue, one approximate slot, no cache,
// and every pool slot stalled for up to 40ms, a stand-in for queries heavy
// enough to saturate a worker on any host. Sixteen concurrent clients send
// cache-bypassing "approx": "auto" queries under a 1s deadline. Overload may
// shed a request or degrade it to the Monte Carlo tier, never fail or
// corrupt it:
//
//   - every response is 200, or 503 with an integer Retry-After >= 1;
//   - every answer that does not say approx equals the naive oracle;
//   - every answer that says approx keeps its intervals inside [0, 1];
//   - the server recovered no panic;
//   - every error response the server counted is a 503 a client saw.
func TestChaosOverloadContract(t *testing.T) {
	const seed = 4244
	const clients, perClient = 16, 8
	w := newSampleWorkload(t, seed)
	oracleEng, err := crsky.NewEngine(w.ds.Objects)
	if err != nil {
		t.Fatal(err)
	}
	alpha := w.alphas[0]
	// Query points on the data: a sample location of a random object each.
	rng := rand.New(rand.NewSource(seed))
	qs := make([]geom.Point, 16)
	oracle := make([][]int, len(qs))
	for i := range qs {
		qs[i] = w.ds.Objects[rng.Intn(w.ds.Len())].Samples[0].Loc.Clone()
		oracle[i] = oracleEng.ProbabilisticReverseSkylineNaive(qs[i], alpha)
	}

	faults := faultinject.New(faultinject.Config{Seed: seed, SlotDelayP: 1, SlotDelayMax: 40 * time.Millisecond})
	ts := httptest.NewServer(server.New(server.Config{
		Workers: 1, MaxQueue: 2, ApproxWorkers: 1, CacheSize: -1, Faults: faults,
	}).Handler())
	defer ts.Close()
	chaosRegister(t, ts, w.ds)

	var ok, approx, shed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				i := (g*perClient + k) % len(qs)
				resp, body, err := chaosPost(ts, context.Background(), "/v1/query?timeout=1s", &server.QueryRequest{
					Dataset: "chaos", Q: qs[i], Alpha: alpha, NoCache: true, Approx: "auto",
				}, false)
				if err != nil {
					t.Errorf("client %d: transport error: %v", g, err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
					var qr server.QueryResponse
					if err := json.Unmarshal(body, &qr); err != nil {
						t.Errorf("bad 200 body: %v (%s)", err, body)
						return
					}
					if !qr.Approx {
						if !equalIDs(qr.Answers, oracle[i]) {
							t.Errorf("overload corrupted an exact answer: q=%v got %v want %v", qs[i], qr.Answers, oracle[i])
						}
						continue
					}
					approx.Add(1)
					for _, iv := range qr.Intervals {
						if !(0 <= iv.Lo && iv.Lo <= iv.Pr && iv.Pr <= iv.Hi && iv.Hi <= 1) {
							t.Errorf("approximate answer with interval %+v outside [0, 1]", iv)
						}
					}
				case http.StatusServiceUnavailable:
					shed.Add(1)
					ra := resp.Header.Get("Retry-After")
					if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
						t.Errorf("503 with Retry-After %q, want integer >= 1", ra)
					}
				default:
					t.Errorf("overload answered status %d, want 200 or 503 (body %s)", resp.StatusCode, body)
				}
			}
		}(g)
	}
	wg.Wait()

	resp, raw, err := chaosGet(ts, "/v1/stats")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %v %v", err, resp)
	}
	var sr server.StatsResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Requests.Panics != 0 {
		t.Errorf("server recovered %d handler panics under overload", sr.Requests.Panics)
	}
	if sr.Requests.Errors > shed.Load() {
		t.Errorf("server counted %d error responses but the clients saw only %d 503s", sr.Requests.Errors, shed.Load())
	}
	if shed.Load()+sr.Requests.Approx == 0 {
		t.Errorf("%d requests against one stalled worker were neither shed nor degraded: the test no longer overloads the server", clients*perClient)
	}
	t.Logf("overload: ok=%d (approx %d) shed=%d; server: errors=%d approx-tier answers=%d",
		ok.Load(), approx.Load(), shed.Load(), sr.Requests.Errors, sr.Requests.Approx)
}
