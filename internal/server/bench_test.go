// Serving-path benchmarks: the baseline future PRs track for request
// latency through the full HTTP stack (decode, registry, cache, pool,
// engine, encode).
//
//	go test ./internal/server -bench=. -benchmem
package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchServer builds a server with the shared sample workload registered.
func benchServer(b *testing.B) *Server {
	b.Helper()
	w := sampleWorkload(b)
	s := New(Config{Workers: 4, CacheSize: 1024})
	if _, err := s.Register(&DatasetRequest{Name: "lUrU", Model: ModelSample, Objects: objectSpecs(w.ds)}); err != nil {
		b.Fatal(err)
	}
	return s
}

func explainBody(b *testing.B, an int, noCache bool) []byte {
	b.Helper()
	w := sampleWorkload(b)
	raw, err := json.Marshal(&ExplainRequest{Dataset: "lUrU", Q: w.q, An: an, Alpha: 0.5,
		Options: OptionsSpec{MaxCandidates: 64}, NoCache: noCache})
	if err != nil {
		b.Fatal(err)
	}
	return raw
}

func serveExplain(b *testing.B, s *Server, body []byte, wantCache string) {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/explain", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(headerCache); got != wantCache {
		b.Fatalf("cache header = %q, want %q", got, wantCache)
	}
}

// BenchmarkServerExplain measures one explain request through the full
// handler stack: cold always recomputes (cache bypassed), warm is served
// from the LRU cache.
func BenchmarkServerExplain(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		s := benchServer(b)
		body := explainBody(b, sampleWorkload(b).ids[0], true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveExplain(b, s, body, "bypass")
		}
	})
	b.Run("warm", func(b *testing.B) {
		s := benchServer(b)
		body := explainBody(b, sampleWorkload(b).ids[0], false)
		serveExplain(b, s, body, "miss") // prime the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveExplain(b, s, body, "hit")
		}
	})
}

// BenchmarkServerQuery measures the query path cold (cache bypassed) for
// the sample model.
func BenchmarkServerQuery(b *testing.B) {
	s := benchServer(b)
	w := sampleWorkload(b)
	raw, err := json.Marshal(&QueryRequest{Dataset: "lUrU", Q: w.q, Alpha: 0.5, NoCache: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(raw))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}
