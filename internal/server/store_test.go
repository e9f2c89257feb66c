package server

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/faultinject"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/store"
	"github.com/crsky/crsky/internal/uncertain"
)

// storeRequests builds one small registration request per model, all 2-D
// so the same query point works everywhere.
func storeRequests(t *testing.T) []*DatasetRequest {
	t.Helper()
	uds, err := dataset.GenerateUncertain(dataset.UncertainConfig{N: 30, Dims: 2, RMax: 400, Seed: 7, Samples: 3})
	if err != nil {
		t.Fatal(err)
	}
	return []*DatasetRequest{
		{Name: "cert", Model: ModelCertain, Points: [][]float64{
			{1, 9}, {2, 7}, {4, 4}, {7, 2}, {9, 1}, {5, 5}, {3, 8}, {8, 3},
		}},
		{Name: "samp", Model: ModelSample, Objects: objectSpecs(uds)},
		{Name: "pdf", Model: ModelPDF, PDFObjects: []PDFObjectSpec{
			{Kind: "uniform", Min: []float64{0, 0}, Max: []float64{3, 3}},
			{Kind: "gaussian", Min: []float64{2, 2}, Max: []float64{6, 6}},
			{Kind: "uniform", Min: []float64{5, 1}, Max: []float64{9, 4}},
		}},
	}
}

func storeQueryFor(req *DatasetRequest) *QueryRequest {
	q := &QueryRequest{Dataset: req.Name, Q: []float64{4, 4}, NoCache: true}
	if req.Model != ModelCertain {
		q.Alpha = 0.3
	}
	if req.Model == ModelSample {
		q.Q = []float64{2500, 2500}
	}
	return q
}

// stripGen drops the serving-layer generation stamp before comparing
// answer payloads: the generation counter is server-global, so recovery
// may number a dataset's generation differently depending on load order.
// The answers themselves must still be byte-identical.
func stripGen(raw []byte) string {
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return string(raw)
	}
	delete(m, "generation")
	out, err := json.Marshal(m)
	if err != nil {
		return string(raw)
	}
	return string(out)
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, _, err := store.Open(dir, store.Options{Fsync: false})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestStoreDurabilityAcrossRestart registers all three models through the
// HTTP surface of a store-backed server, restarts (new store.Open +
// LoadFromStore), and asserts the recovered server answers queries
// byte-identically — the serving-level old-or-new guarantee.
func TestStoreDurabilityAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	reqs := storeRequests(t)

	st1 := openStore(t, dir)
	s1 := New(Config{Store: st1})
	c1 := newTestClient(t, s1)
	want := make(map[string][]byte)
	for _, req := range reqs {
		c1.post("/v1/datasets", req, nil, http.StatusCreated)
		resp, raw := c1.do(http.MethodPost, "/v1/query", storeQueryFor(req))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %s: status %d (%s)", req.Name, resp.StatusCode, raw)
		}
		want[req.Name] = raw
	}
	// A durable delete must also survive the restart.
	c1.post("/v1/datasets", &DatasetRequest{Name: "doomed", Model: ModelCertain,
		Points: [][]float64{{1, 1}, {2, 2}}}, nil, http.StatusCreated)
	if resp, raw := c1.do(http.MethodDelete, "/v1/datasets/doomed", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d (%s)", resp.StatusCode, raw)
	}
	st1.Close()

	st2 := openStore(t, dir)
	s2 := New(Config{Store: st2})
	loaded, quarantined, err := s2.LoadFromStore()
	if err != nil || len(quarantined) != 0 {
		t.Fatalf("LoadFromStore: loaded=%d quarantined=%v err=%v", loaded, quarantined, err)
	}
	if loaded != len(reqs) {
		t.Fatalf("recovered %d datasets, want %d", loaded, len(reqs))
	}
	c2 := newTestClient(t, s2)
	if _, ok := s2.reg.get("doomed"); ok {
		t.Fatal("deleted dataset resurrected after restart")
	}
	for _, req := range reqs {
		resp, raw := c2.do(http.MethodPost, "/v1/query", storeQueryFor(req))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("recovered query %s: status %d (%s)", req.Name, resp.StatusCode, raw)
		}
		if stripGen(raw) != stripGen(want[req.Name]) {
			t.Errorf("recovered %s answers differ:\n  before: %s\n  after:  %s", req.Name, want[req.Name], raw)
		}
	}
}

// TestStartupQuarantineAndDegradedHealth corrupts one snapshot on disk and
// asserts the boot contract: the sick dataset is quarantined, the healthy
// ones serve, /healthz degrades, and the corruption counter surfaces in
// /v1/stats and /metrics.
func TestStartupQuarantineAndDegradedHealth(t *testing.T) {
	dir := t.TempDir()
	reqs := storeRequests(t)

	st1 := openStore(t, dir)
	s1 := New(Config{Store: st1})
	for _, req := range reqs {
		if _, err := s1.Register(req); err != nil {
			t.Fatalf("register %s: %v", req.Name, err)
		}
	}
	// Compact so the WAL holds no second copy of the payloads — the
	// snapshot is then the only source and its corruption must be felt.
	if err := st1.Compact(); err != nil {
		t.Fatal(err)
	}
	st1.Close()
	if err := faultinject.FlipByte(filepath.Join(dir, "datasets", "samp.snap"), -9); err != nil {
		t.Fatal(err)
	}

	st2, rep, err := store.Open(dir, store.Options{Fsync: false})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer st2.Close()
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Dataset != "samp" {
		t.Fatalf("quarantined = %+v, want exactly samp", rep.Quarantined)
	}
	if !strings.HasPrefix(rep.Quarantined[0].Path, filepath.Join(dir, "corrupt")) {
		t.Fatalf("quarantined file not under corrupt/: %s", rep.Quarantined[0].Path)
	}
	s2 := New(Config{Store: st2})
	loaded, quarantined, err := s2.LoadFromStore()
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 2 || len(quarantined) != 0 {
		t.Fatalf("loaded=%d quarantined=%v, want 2 healthy datasets", loaded, quarantined)
	}
	c := newTestClient(t, s2)

	var health HealthResponse
	resp, raw := c.do(http.MethodGet, "/healthz", nil)
	if err := json.Unmarshal(raw, &health); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %s (%v)", resp.StatusCode, raw, err)
	}
	if health.Status != "degraded" || health.Store == nil || health.Store.CorruptTotal != 1 {
		t.Fatalf("healthz = %s, want degraded with corruptTotal 1", raw)
	}

	// The healthy datasets keep answering.
	for _, name := range []string{"cert", "pdf"} {
		for _, req := range reqs {
			if req.Name != name {
				continue
			}
			if resp, raw := c.do(http.MethodPost, "/v1/query", storeQueryFor(req)); resp.StatusCode != http.StatusOK {
				t.Fatalf("degraded boot: query %s: %d (%s)", name, resp.StatusCode, raw)
			}
		}
	}

	var stats StatsResponse
	if _, raw := c.do(http.MethodGet, "/v1/stats", nil); json.Unmarshal(raw, &stats) != nil || stats.Store == nil {
		t.Fatalf("stats missing store block: %s", raw)
	} else if stats.Store.CorruptTotal != 1 {
		t.Fatalf("stats store corruptTotal = %d, want 1", stats.Store.CorruptTotal)
	}

	admin := New(Config{Store: st2})
	rec := doMetrics(t, admin)
	if !strings.Contains(rec, "crsky_store_corrupt_total 1") {
		t.Fatalf("/metrics missing crsky_store_corrupt_total 1:\n%s", rec)
	}

	// fsck -repair on the (closed) directory must leave it verify-clean.
	st2.Close()
	if frep, err := store.Fsck(nil, dir, true); err != nil || !frep.Repaired {
		t.Fatalf("fsck repair: %+v err=%v", frep, err)
	}
	if frep, err := store.Fsck(nil, dir, false); err != nil || !frep.Healthy() {
		t.Fatalf("store unhealthy after repair: %+v err=%v", frep, err)
	}
}

// doMetrics renders /metrics through the admin handler.
func doMetrics(t *testing.T, s *Server) string {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.AdminHandler().ServeHTTP(rec, req)
	return rec.Body.String()
}

// TestUploadRejected413 caps the body size and asserts the oversized
// upload contract: 413 with the uniform error envelope, the rejection
// counter, and ordinary bad JSON still a 400.
func TestUploadRejected413(t *testing.T) {
	s := New(Config{MaxBodyBytes: 512})
	c := newTestClient(t, s)

	big := &DatasetRequest{Name: "big", Model: ModelCertain, Points: make([][]float64, 200)}
	for i := range big.Points {
		big.Points[i] = []float64{float64(i), float64(i)}
	}
	resp, raw := c.do(http.MethodPost, "/v1/datasets", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: status %d, want 413 (%s)", resp.StatusCode, raw)
	}
	var envelope ErrorResponse
	if err := json.Unmarshal(raw, &envelope); err != nil || !strings.Contains(envelope.Error, "512") {
		t.Fatalf("413 envelope should name the limit: %s (%v)", raw, err)
	}

	// The cap applies to every decoded endpoint, not just uploads.
	bigQ := &QueryRequest{Dataset: "x", Q: make([]float64, 2000)}
	if resp, _ := c.do(http.MethodPost, "/v1/query", bigQ); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized query: status %d, want 413", resp.StatusCode)
	}

	var stats StatsResponse
	if _, raw := c.do(http.MethodGet, "/v1/stats", nil); json.Unmarshal(raw, &stats) != nil {
		t.Fatalf("stats: %s", raw)
	} else if stats.Requests.UploadRejected != 2 {
		t.Fatalf("uploadRejected = %d, want 2", stats.Requests.UploadRejected)
	}

	httpReq, _ := http.NewRequest(http.MethodPost, c.ts.URL+"/v1/datasets", strings.NewReader("{not json"))
	r2, err := c.ts.Client().Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", r2.StatusCode)
	}
}

// TestServerCrashRecoveryMatrix drives the real registration payload
// encoding (all three models) through a crash-injected filesystem, then
// recovers on a clean one and asserts every recovered dataset answers its
// query byte-identically to a freshly built in-memory server — the
// end-to-end "recovered engines are bit-identical" criterion.
func TestServerCrashRecoveryMatrix(t *testing.T) {
	reqs := storeRequests(t)

	// Reference answers from a store-less server over the same requests.
	ref := New(Config{})
	refC := newTestClient(t, ref)
	want := make(map[string][]byte)
	for _, req := range reqs {
		refC.post("/v1/datasets", req, nil, http.StatusCreated)
		resp, raw := refC.do(http.MethodPost, "/v1/query", storeQueryFor(req))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reference query %s: %d (%s)", req.Name, resp.StatusCode, raw)
		}
		want[req.Name] = raw
	}

	// Size the matrix: count the mutations of a clean full run.
	registerAll := func(st *store.Store) (acked []string, inflight string) {
		s := New(Config{Store: st})
		for _, req := range reqs {
			if _, err := s.Register(req); err != nil {
				return acked, req.Name
			}
			acked = append(acked, req.Name)
		}
		return acked, ""
	}
	counter := faultinject.NewCrashFS(nil, -1, false, 1)
	st, _, err := store.Open(t.TempDir(), store.Options{Fsync: true, FS: counter})
	if err != nil {
		t.Fatal(err)
	}
	if _, inflight := registerAll(st); inflight != "" {
		t.Fatalf("counting run crashed at %s", inflight)
	}
	st.Close()
	total := counter.Ops()

	for _, torn := range []bool{false, true} {
		for crash := int64(0); crash < total; crash++ {
			name := fmt.Sprintf("torn=%v/crash=%d", torn, crash)
			dir := t.TempDir()
			cfs := faultinject.NewCrashFS(nil, crash, torn, crash*13+5)
			var acked []string
			var inflight string
			if st, _, err := store.Open(dir, store.Options{Fsync: true, FS: cfs}); err == nil {
				acked, inflight = registerAll(st)
				st.Close()
			}

			rec, _, err := store.Open(dir, store.Options{Fsync: true})
			if err != nil {
				t.Fatalf("%s: recovery open: %v", name, err)
			}
			srv := New(Config{Store: rec})
			loaded, quarantined, err := srv.LoadFromStore()
			if err != nil || len(quarantined) != 0 {
				t.Fatalf("%s: load: loaded=%d quarantined=%v err=%v", name, loaded, quarantined, err)
			}
			// Old-or-new at the dataset level: every acked registration
			// must be there; at most the single in-flight one may also be.
			got := make(map[string]bool)
			for _, info := range srv.reg.list() {
				got[info.Name] = true
			}
			for _, a := range acked {
				if !got[a] {
					t.Fatalf("%s: acknowledged dataset %s lost (have %v)", name, a, got)
				}
				delete(got, a)
			}
			for extra := range got {
				if extra != inflight {
					t.Fatalf("%s: unexpected dataset %s (inflight was %q)", name, extra, inflight)
				}
			}
			// Bit-identical serving for everything recovered.
			c := newTestClient(t, srv)
			for _, req := range reqs {
				if _, ok := srv.reg.get(req.Name); !ok {
					continue
				}
				resp, raw := c.do(http.MethodPost, "/v1/query", storeQueryFor(req))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: recovered query %s: %d (%s)", name, req.Name, resp.StatusCode, raw)
				}
				if stripGen(raw) != stripGen(want[req.Name]) {
					t.Fatalf("%s: recovered %s answers drifted:\n  want %s\n  got  %s",
						name, req.Name, want[req.Name], raw)
				}
			}
			rec.Close()
		}
	}
}

// TestRegisterFailsClosedWhenStoreDead asserts write-through semantics: if
// the durable write cannot commit, the registration must not be
// acknowledged or installed.
func TestRegisterFailsClosedWhenStoreDead(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	st.Close() // a dead store refuses Put
	s := New(Config{Store: st})
	if _, err := s.Register(&DatasetRequest{Name: "d", Model: ModelCertain,
		Points: [][]float64{{1, 1}, {2, 2}}}); err == nil {
		t.Fatal("register with a closed store should fail")
	}
	if _, ok := s.reg.get("d"); ok {
		t.Fatal("failed registration must not install the dataset")
	}
	if _, err := os.Stat(filepath.Join(dir, "datasets", "d.snap")); err == nil {
		t.Fatal("failed registration must not leave a snapshot")
	}
}

// TestStoredPayloadPinned pins the durable payload of each model: the
// bytes registration hands store.Put are SaveCertainGob or SaveUncertainGob
// of the parsed input, or the gob of the pdf specs, whether the dataset
// arrived as CSV or as JSON. A data directory written in that form
// directly, without a server, recovers to engines that answer like a
// fresh registration of the same requests.
func TestStoredPayloadPinned(t *testing.T) {
	cds, err := dataset.GenerateCertain(dataset.CertainConfig{N: 60, Dims: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	uds, err := dataset.GenerateUncertain(dataset.UncertainConfig{N: 30, Dims: 2, RMax: 400, Seed: 9, Samples: 3})
	if err != nil {
		t.Fatal(err)
	}
	var certainCSV, sampleCSV strings.Builder
	if err := dataset.SaveCertainCSV(&certainCSV, cds); err != nil {
		t.Fatal(err)
	}
	if err := dataset.SaveUncertainCSV(&sampleCSV, uds); err != nil {
		t.Fatal(err)
	}
	certainGob := func(ds *dataset.Certain, err error) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err == nil {
			err = dataset.SaveCertainGob(&buf, ds)
		}
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	sampleGob := func(ds *dataset.Uncertain, err error) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err == nil {
			err = dataset.SaveUncertainGob(&buf, ds)
		}
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	reqs := storeRequests(t)
	var specsGob bytes.Buffer
	if err := gob.NewEncoder(&specsGob).Encode(reqs[2].PDFObjects); err != nil {
		t.Fatal(err)
	}
	points := make([]geom.Point, len(reqs[0].Points))
	for i, p := range reqs[0].Points {
		points[i] = p
	}
	sampleObjs := make([]*uncertain.Object, len(reqs[1].Objects))
	for i, o := range reqs[1].Objects {
		ss := make([]uncertain.Sample, len(o.Samples))
		for j, s := range o.Samples {
			ss[j] = uncertain.Sample{P: s.P, Loc: s.Loc}
		}
		sampleObjs[i] = uncertain.New(i, ss)
	}
	cases := []struct {
		req   *DatasetRequest
		model string
		want  []byte
		query *QueryRequest
	}{
		{reqs[0], ModelCertain, certainGob(dataset.NewCertain(points)), storeQueryFor(reqs[0])},
		{reqs[1], ModelSample, sampleGob(dataset.NewUncertain(sampleObjs)), storeQueryFor(reqs[1])},
		{reqs[2], ModelPDF, specsGob.Bytes(), storeQueryFor(reqs[2])},
		{&DatasetRequest{Name: "cert-csv", Model: ModelCertain, CSV: certainCSV.String()}, ModelCertain,
			certainGob(dataset.LoadCertainCSV(strings.NewReader(certainCSV.String()))),
			&QueryRequest{Dataset: "cert-csv", Q: []float64{5000, 5000}, NoCache: true}},
		{&DatasetRequest{Name: "samp-csv", Model: "uncertain", CSV: sampleCSV.String()}, ModelSample,
			sampleGob(dataset.LoadUncertainCSV(strings.NewReader(sampleCSV.String()))),
			&QueryRequest{Dataset: "samp-csv", Q: []float64{2500, 2500}, Alpha: 0.3, NoCache: true}},
	}

	st := openStore(t, t.TempDir())
	reg := newTestClient(t, New(Config{Store: st}))
	fresh := newTestClient(t, New(Config{}))
	written := t.TempDir()
	wst := openStore(t, written)
	for _, c := range cases {
		reg.post("/v1/datasets", c.req, nil, http.StatusCreated)
		fresh.post("/v1/datasets", c.req, nil, http.StatusCreated)
		got, ok := st.Get(c.req.Name)
		if !ok || got.Model != c.model || !bytes.Equal(got.Data, c.want) {
			t.Fatalf("%s: stored model %q and %d payload bytes, want model %q and the %d bytes of the parsed input",
				c.req.Name, got.Model, len(got.Data), c.model, len(c.want))
		}
		if err := wst.Put(c.req.Name, c.model, c.want); err != nil {
			t.Fatal(err)
		}
	}
	wst.Close()

	s := New(Config{Store: openStore(t, written)})
	if loaded, quarantined, err := s.LoadFromStore(); err != nil || loaded != len(cases) || len(quarantined) != 0 {
		t.Fatalf("LoadFromStore = %d loaded, %v quarantined, err %v", loaded, quarantined, err)
	}
	recovered := newTestClient(t, s)
	for _, c := range cases {
		_, wantInfo := fresh.do(http.MethodGet, "/v1/datasets/"+c.req.Name, nil)
		_, gotInfo := recovered.do(http.MethodGet, "/v1/datasets/"+c.req.Name, nil)
		if stripGen(gotInfo) != stripGen(wantInfo) {
			t.Errorf("%s: recovered info %s, fresh registration %s", c.req.Name, gotInfo, wantInfo)
		}
		wresp, wantAns := fresh.do(http.MethodPost, "/v1/query", c.query)
		gresp, gotAns := recovered.do(http.MethodPost, "/v1/query", c.query)
		if wresp.StatusCode != http.StatusOK || gresp.StatusCode != http.StatusOK || stripGen(gotAns) != stripGen(wantAns) {
			t.Errorf("%s: recovered answers %d %s, fresh registration %d %s",
				c.req.Name, gresp.StatusCode, gotAns, wresp.StatusCode, wantAns)
		}
	}
}
