package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	crsky "github.com/crsky/crsky"
)

// TestV1DisconnectCancelsComputation asserts that a /v1 client that goes
// away cancels its computation, as on /v2: the engine sees the
// cancellation, the worker-pool slot comes back, and nothing is cached for
// the abandoned request, so the next identical request is a miss.
func TestV1DisconnectCancelsComputation(t *testing.T) {
	w := sampleWorkload(t)
	opts := OptionsSpec{MaxCandidates: 64}
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/v1/query", &QueryRequest{Dataset: "d", Q: w.q, Alpha: 0.5}},
		{"/v1/explain", &ExplainRequest{Dataset: "d", Q: w.q, An: w.ids[0], Alpha: 0.5, Options: opts}},
		{"/v1/repair", &RepairRequest{Dataset: "d", Q: w.q, An: w.ids[0], Alpha: 0.5, Options: opts}},
	} {
		t.Run(strings.TrimPrefix(tc.path, "/v1/"), func(t *testing.T) {
			s := New(Config{Workers: 1, CacheSize: 16})
			entered := make(chan struct{})
			sawCancel := make(chan bool, 1)
			var held atomic.Bool
			s.computeHook = func(ctx context.Context) {
				if !held.CompareAndSwap(false, true) {
					return // only the first computation is held open
				}
				close(entered)
				select {
				case <-ctx.Done():
					sawCancel <- true
				case <-time.After(2 * time.Second):
					sawCancel <- false
				}
			}
			c := newTestClient(t, s)
			c.registerSample("d", w.ds)

			raw, err := json.Marshal(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.ts.URL+tc.path, bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				if resp, err := c.ts.Client().Do(req); err == nil {
					resp.Body.Close()
				}
			}()
			select {
			case <-entered:
			case <-time.After(5 * time.Second):
				t.Fatal("computation never started")
			}
			cancel()
			<-done
			if !<-sawCancel {
				t.Fatal("v1 computation kept running after its client disconnected")
			}
			waitFor(t, "pool drained", func() bool {
				ps := s.pool.Stats()
				return ps.InFlight == 0 && ps.QueueDepth == 0
			})

			resp, body := c.do(http.MethodPost, tc.path, tc.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("request after the disconnect: status %d (body %s)", resp.StatusCode, body)
			}
			if got := resp.Header.Get(headerCache); got != "miss" {
				t.Fatalf("request after the disconnect: cache %q, want miss", got)
			}
		})
	}
}

// rejectingVerifier is an engine whose verifier rejects every explanation.
type rejectingVerifier struct{ crsky.Explainer }

func (rejectingVerifier) VerifyCtx(context.Context, crsky.Point, float64, *crsky.Explanation) error {
	return errors.New("verifier rejects everything")
}

// TestVerificationFailureIsServerError asserts that an explanation the
// verifier rejects is answered with a 500 on both surfaces and never stays
// in the cache, whether it was cached or freshly computed.
func TestVerificationFailureIsServerError(t *testing.T) {
	w := sampleWorkload(t)
	s := New(Config{Workers: 2, CacheSize: 16,
		WrapEngine: func(e crsky.Explainer) crsky.Explainer { return rejectingVerifier{e} }})
	c := newTestClient(t, s)
	c.registerSample("d", w.ds)

	plain := &ExplainRequest{Dataset: "d", Q: w.q, An: w.ids[0], Alpha: 0.5, Options: OptionsSpec{MaxCandidates: 64}}
	verified := *plain
	verified.Verify = true
	batch := &BatchExplainRequest{Dataset: "d", Alpha: 0.5, Options: plain.Options, Verify: true,
		Items: []BatchExplainItemRequest{{Q: w.q, An: w.ids[0]}}}

	expect := func(step, path string, req any, status int, cache string) {
		t.Helper()
		resp, raw := c.do(http.MethodPost, path, req)
		if resp.StatusCode != status {
			t.Fatalf("%s: status %d, want %d (body %s)", step, resp.StatusCode, status, raw)
		}
		if got := resp.Header.Get(headerCache); got != cache {
			t.Fatalf("%s: cache %q, want %q", step, got, cache)
		}
		if status == http.StatusInternalServerError {
			var e ErrorResponse
			decodeInto(t, raw, &e)
			if !strings.Contains(e.Error, "explanation failed verification") ||
				!strings.Contains(e.Error, "verifier rejects everything") {
				t.Fatalf("%s: error %q does not report the verification failure", step, e.Error)
			}
		}
	}
	expect("unverified v1 explain", "/v1/explain", plain, http.StatusOK, "miss")
	expect("verified v1 explain of the cached result", "/v1/explain", &verified, http.StatusInternalServerError, "hit")
	expect("verified v1 explain after the eviction", "/v1/explain", &verified, http.StatusInternalServerError, "miss")
	expect("unverified v1 explain after a rejected computation", "/v1/explain", plain, http.StatusOK, "miss")
	expect("verified v2 explain of the cached result", "/v2/explain", batch, http.StatusInternalServerError, "hit")
	expect("unverified v1 explain after the v2 eviction", "/v1/explain", plain, http.StatusOK, "miss")
	batch.NoCache = true
	expect("verified v2 explain computed fresh", "/v2/explain", batch, http.StatusInternalServerError, "bypass")
}
