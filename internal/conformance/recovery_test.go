package conformance

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/server"
	"github.com/crsky/crsky/internal/store"
)

// TestRecoveredServerConformance is the serving-level recovery oracle:
// datasets registered over HTTP into a store-backed server must, after a
// restart that rebuilds every engine from the durable payloads, produce
// byte-identical responses — and the recovered answers must still match
// the naive per-object oracle, so recovery cannot trade correctness for
// availability.
func TestRecoveredServerConformance(t *testing.T) {
	dir := t.TempDir()

	type probe struct {
		path string
		body []byte
	}
	var probes []probe
	want := make(map[int][]byte)

	post := func(ts *httptest.Server, path string, body []byte) (int, []byte) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw
	}

	st1, _, err := store.Open(dir, store.Options{Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := server.New(server.Config{Store: st1})
	ts1 := httptest.NewServer(srv1.Handler())

	seeds := []int64{11, 12, 13}
	workloads := make(map[int64]*sampleWorkload)
	for _, seed := range seeds {
		w := newSampleWorkload(t, seed)
		workloads[seed] = w
		name := string(rune('a' + seed%26))
		specs := make([]server.ObjectSpec, w.ds.Len())
		for i, o := range w.ds.Objects {
			ss := make([]server.SampleSpec, len(o.Samples))
			for j, s := range o.Samples {
				ss[j] = server.SampleSpec{P: s.P, Loc: s.Loc}
			}
			specs[i] = server.ObjectSpec{Samples: ss}
		}
		reg, err := json.Marshal(&server.DatasetRequest{Name: name, Model: server.ModelSample, Objects: specs})
		if err != nil {
			t.Fatal(err)
		}
		if status, raw := post(ts1, "/v1/datasets", reg); status != http.StatusCreated {
			t.Fatalf("register seed %d: %d (%s)", seed, status, raw)
		}
		for _, q := range w.qs {
			for _, alpha := range w.alphas {
				body, err := json.Marshal(&server.QueryRequest{Dataset: name, Q: q, Alpha: alpha, NoCache: true})
				if err != nil {
					t.Fatal(err)
				}
				probes = append(probes, probe{path: "/v1/query", body: body})
			}
		}
		// One explanation probe per workload: whatever response it gets
		// (success or a semantic 422) must reproduce identically.
		eb, err := json.Marshal(&server.ExplainRequest{Dataset: name, Q: w.qs[0], An: 0, Alpha: w.alphas[0],
			Options: server.OptionsSpec{MaxCandidates: 24, MaxSubsets: 20000}, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, probe{path: "/v1/explain", body: eb})
	}
	wantStatus := make(map[int]int)
	for i, p := range probes {
		status, raw := post(ts1, p.path, p.body)
		wantStatus[i], want[i] = status, raw
	}
	ts1.Close()
	st1.Close()

	// Restart: recover the store, rebuild every engine, replay the probes.
	st2, rep, err := store.Open(dir, store.Options{Fsync: false})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer st2.Close()
	if len(rep.Quarantined) != 0 {
		t.Fatalf("clean shutdown should recover clean, quarantined %+v", rep.Quarantined)
	}
	srv2 := server.New(server.Config{Store: st2})
	if loaded, quarantined, err := srv2.LoadFromStore(); err != nil || loaded != len(seeds) || len(quarantined) != 0 {
		t.Fatalf("LoadFromStore: loaded=%d quarantined=%v err=%v", loaded, quarantined, err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	for i, p := range probes {
		status, raw := post(ts2, p.path, p.body)
		if status != wantStatus[i] || !bytes.Equal(raw, want[i]) {
			t.Fatalf("probe %d %s drifted after recovery:\n  before: %d %s\n  after:  %d %s",
				i, p.path, wantStatus[i], want[i], status, raw)
		}
	}

	// Independent oracle: the recovered answers equal the naive
	// per-object computation over the original objects.
	for _, seed := range seeds {
		w := workloads[seed]
		name := string(rune('a' + seed%26))
		for _, alpha := range w.alphas {
			body, err := json.Marshal(&server.QueryRequest{Dataset: name, Q: w.qs[0], Alpha: alpha, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			status, raw := post(ts2, "/v1/query", body)
			if status != http.StatusOK {
				t.Fatalf("seed %d oracle query: %d (%s)", seed, status, raw)
			}
			var qr server.QueryResponse
			if err := json.Unmarshal(raw, &qr); err != nil {
				t.Fatal(err)
			}
			if naive, _ := causality.NaivePRSQ(w.ds, w.qs[0], alpha); !equalIDs(qr.Answers, naive) {
				t.Fatalf("seed %d alpha %g: recovered server answers %v, oracle %v", seed, alpha, qr.Answers, naive)
			}
		}
	}
}
