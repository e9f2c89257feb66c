package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/store"
	"github.com/crsky/crsky/internal/watch"
)

// flipScenario is the hand-built certain-model configuration every
// dynamic-plane test reuses: q at the origin, object 1 ("an") blocked
// out of the reverse skyline solely by object 0 ("blocker") sitting
// strictly between an and q. Deleting the blocker flips an into the
// answer set; nothing else can.
var flipScenario = &DatasetRequest{Name: "flip", Model: ModelCertain, Points: [][]float64{
	{1, 1},   // 0: blocker — dominates q w.r.t. an
	{4, 4},   // 1: an — non-answer while the blocker lives
	{20, 20}, // 2: bystander, far outside every dominance window
}}

var flipQ = []float64{0, 0}

// flipSampleScenario and flipPDFScenario give flipScenario's shape on the
// probabilistic models: object 0 blocks object 1 in every world, and
// object 2 stands far away.
var (
	flipSampleScenario = &DatasetRequest{Name: "flipS", Model: ModelSample, Objects: []ObjectSpec{
		{Samples: []SampleSpec{{P: 1, Loc: []float64{1, 1}}}},
		{Samples: []SampleSpec{{P: 0.5, Loc: []float64{4, 4}}, {P: 0.5, Loc: []float64{5, 5}}}},
		{Samples: []SampleSpec{{P: 1, Loc: []float64{20, 20}}}},
	}}
	flipPDFScenario = &DatasetRequest{Name: "flipP", Model: ModelPDF, PDFObjects: []PDFObjectSpec{
		{Kind: "uniform", Min: []float64{1, 1}, Max: []float64{1.5, 1.5}},
		{Kind: "uniform", Min: []float64{4, 4}, Max: []float64{5, 5}},
		{Kind: "gaussian", Min: []float64{20, 20}, Max: []float64{21, 21}},
	}}
)

// reevalScenario is a sample dataset where deleting object 0, which blocks
// objects 1, 3 and 4 in every world, moves each to a different Pr at q =
// flipQ: object 1 to 0.5 (object 2 still blocks it in half the worlds),
// object 3 to 1, and object 4 stays at 0 (object 5 blocks it for good).
var reevalScenario = &DatasetRequest{Name: "reeval", Model: ModelSample, Objects: []ObjectSpec{
	{Samples: []SampleSpec{{P: 1, Loc: []float64{1, 1}}}},
	{Samples: []SampleSpec{{P: 1, Loc: []float64{6, 6}}}},
	{Samples: []SampleSpec{{P: 0.5, Loc: []float64{5.5, 5.5}}, {P: 0.5, Loc: []float64{100, -100}}}},
	{Samples: []SampleSpec{{P: 1, Loc: []float64{13, 0.8}}}},
	{Samples: []SampleSpec{{P: 1, Loc: []float64{0.9, 20}}}},
	{Samples: []SampleSpec{{P: 1, Loc: []float64{0.8, 15}}}},
}}

func queryAnswers(t *testing.T, c *testClient, name string, q []float64, noCache bool) ([]int, *http.Response) {
	t.Helper()
	var qr QueryResponse
	resp := c.post("/v1/query", &QueryRequest{Dataset: name, Q: q, NoCache: noCache}, &qr, http.StatusOK)
	return qr.Answers, resp
}

// TestObjectMutationEndpoints drives the full HTTP mutation surface on
// the certain model: insert shifts the answer set, delete flips the
// blocked non-answer in, generations advance, and the error surface
// (unknown dataset, bad payload, bad ID, double delete) maps to the
// right statuses.
func TestObjectMutationEndpoints(t *testing.T) {
	c := newTestClient(t, New(Config{Workers: 2}))
	var info DatasetInfo
	c.post("/v1/datasets", flipScenario, &info, http.StatusCreated)

	if ids, _ := queryAnswers(t, c, "flip", flipQ, false); slices.Contains(ids, 1) {
		t.Fatalf("scenario broken: an already an answer: %v", ids)
	}

	// Insert: next positional ID, size grows, generation advances.
	var mr MutationResponse
	c.post("/v2/datasets/flip/objects", &ObjectInsertRequest{Point: []float64{30, 30}}, &mr, http.StatusOK)
	if mr.ID != 3 || mr.Size != 4 || mr.Op != "insert" || mr.Generation <= info.Generation {
		t.Fatalf("insert ack = %+v (registered gen %d)", mr, info.Generation)
	}

	// Delete the blocker over HTTP: an must flip into the answer set.
	resp, raw := c.do(http.MethodDelete, "/v2/datasets/flip/objects/0", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d (%s)", resp.StatusCode, raw)
	}
	var dr MutationResponse
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.ID != 0 || dr.Op != "delete" || dr.Generation <= mr.Generation {
		t.Fatalf("delete ack = %+v", dr)
	}
	// Size counts positional slots (IDs are never reused), so a delete
	// does not shrink it.
	if dr.Size != 4 {
		t.Fatalf("delete ack size = %d, want 4", dr.Size)
	}
	if ids, _ := queryAnswers(t, c, "flip", flipQ, false); !slices.Contains(ids, 1) {
		t.Fatalf("an did not flip after blocker delete: %v", ids)
	}

	// Error surface.
	c.post("/v2/datasets/ghost/objects", &ObjectInsertRequest{Point: []float64{1, 2}}, nil, http.StatusNotFound)
	c.post("/v2/datasets/flip/objects", &ObjectInsertRequest{}, nil, http.StatusBadRequest)
	c.post("/v2/datasets/flip/objects", &ObjectInsertRequest{
		Point: []float64{1, 2}, Samples: []SampleSpec{{P: 1, Loc: []float64{1, 2}}},
	}, nil, http.StatusBadRequest)
	if resp, _ := c.do(http.MethodDelete, "/v2/datasets/flip/objects/99", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete out-of-range: status %d", resp.StatusCode)
	}
	if resp, _ := c.do(http.MethodDelete, "/v2/datasets/flip/objects/0", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: status %d", resp.StatusCode)
	}
	if resp, _ := c.do(http.MethodDelete, "/v2/datasets/flip/objects/x", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-numeric id: status %d", resp.StatusCode)
	}
}

// TestMutateThenQueryCacheMiss is the generation-key regression test: a
// cached answer must never survive a mutation, because the dataset
// generation is folded into every cache key.
func TestMutateThenQueryCacheMiss(t *testing.T) {
	c := newTestClient(t, New(Config{Workers: 2, CacheSize: 64}))
	c.post("/v1/datasets", flipScenario, nil, http.StatusCreated)

	before, resp := queryAnswers(t, c, "flip", flipQ, false)
	if got := resp.Header.Get(headerCache); got != "miss" {
		t.Fatalf("first query cache = %q, want miss", got)
	}
	if _, resp = queryAnswers(t, c, "flip", flipQ, false); resp.Header.Get(headerCache) != "hit" {
		t.Fatalf("second query cache = %q, want hit", resp.Header.Get(headerCache))
	}

	resp, raw := c.do(http.MethodDelete, "/v2/datasets/flip/objects/0", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d (%s)", resp.StatusCode, raw)
	}

	after, resp := queryAnswers(t, c, "flip", flipQ, false)
	if got := resp.Header.Get(headerCache); got != "miss" {
		t.Fatalf("post-mutation query cache = %q, want miss (stale generation served)", got)
	}
	if reflect.DeepEqual(before, after) || !slices.Contains(after, 1) {
		t.Fatalf("post-mutation answers = %v (before %v): mutation not visible", after, before)
	}
}

// TestMutationDurabilityAcrossRestart commits mutations on a store-backed
// server, reopens the directory cold, and demands the recovered engine
// answer identically — the WAL-commit-before-apply contract surfaced at
// the HTTP layer.
func TestMutationDurabilityAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{Workers: 2, Store: openStore(t, dir)})
	c1 := newTestClient(t, s1)
	c1.post("/v1/datasets", flipScenario, nil, http.StatusCreated)
	var mr MutationResponse
	c1.post("/v2/datasets/flip/objects", &ObjectInsertRequest{Point: []float64{2, 0.5}}, &mr, http.StatusOK)
	if mr.Seq == 0 {
		t.Fatal("durable mutation acknowledged without a WAL sequence")
	}
	if resp, raw := c1.do(http.MethodDelete, "/v2/datasets/flip/objects/0", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d (%s)", resp.StatusCode, raw)
	}
	want, _ := queryAnswers(t, c1, "flip", flipQ, true)
	wantInfo := DatasetInfo{}
	c1.mustGet("/v1/datasets/flip", &wantInfo)
	s1.cfg.Store.Close()

	s2 := New(Config{Workers: 2, Store: openStore(t, dir)})
	loaded, quarantined, err := s2.LoadFromStore()
	if err != nil || loaded != 1 || len(quarantined) != 0 {
		t.Fatalf("LoadFromStore = %d loaded, %v quarantined, err %v", loaded, quarantined, err)
	}
	c2 := newTestClient(t, s2)
	got, _ := queryAnswers(t, c2, "flip", flipQ, true)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered answers = %v, want %v", got, want)
	}
	gotInfo := DatasetInfo{}
	c2.mustGet("/v1/datasets/flip", &gotInfo)
	if gotInfo.Size != wantInfo.Size || gotInfo.Dims != wantInfo.Dims {
		t.Fatalf("recovered info = %+v, want %+v", gotInfo, wantInfo)
	}
	// The tombstone must have survived: the deleted ID stays invalid.
	if resp, _ := c2.do(http.MethodDelete, "/v2/datasets/flip/objects/0", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("tombstone lost across restart: delete status %d", resp.StatusCode)
	}
}

// TestCrashBetweenCommitAndApply simulates the worst crash point: the
// mutation reached the WAL (the commit point) but the process died
// before the successor engine was installed. Recovery must replay the
// log and serve the post-mutation state.
func TestCrashBetweenCommitAndApply(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	s1 := New(Config{Workers: 2, Store: st1})
	c1 := newTestClient(t, s1)
	c1.post("/v1/datasets", flipScenario, nil, http.StatusCreated)
	// WAL-commit the blocker's delete directly, bypassing the registry:
	// in-memory state still has object 0, exactly as if we crashed after
	// the append and before the install.
	if _, err := st1.AppendMutation("flip", store.Mutation{Op: store.MutDelete, ID: 0}); err != nil {
		t.Fatal(err)
	}
	if ids, _ := queryAnswers(t, c1, "flip", flipQ, true); slices.Contains(ids, 1) {
		t.Fatalf("pre-crash memory already mutated: %v", ids)
	}
	st1.Close()

	s2 := New(Config{Workers: 2, Store: openStore(t, dir)})
	if loaded, quarantined, err := s2.LoadFromStore(); err != nil || loaded != 1 || len(quarantined) != 0 {
		t.Fatalf("LoadFromStore = %d loaded, %v quarantined, err %v", loaded, quarantined, err)
	}
	c2 := newTestClient(t, s2)
	if ids, _ := queryAnswers(t, c2, "flip", flipQ, true); !slices.Contains(ids, 1) {
		t.Fatalf("recovery lost the committed delete: answers %v", ids)
	}
	if resp, _ := c2.do(http.MethodDelete, "/v2/datasets/flip/objects/0", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("committed delete not replayed as a tombstone: status %d", resp.StatusCode)
	}
}

// TestMutationPayloadRoundTrip encodes inserts of all three models and
// decodes them back bit for bit; a 2-d point's payload stays compact.
func TestMutationPayloadRoundTrip(t *testing.T) {
	point := []float64{4523.123456789012, 7123.987654321098}
	awkward := []float64{math.Copysign(0, -1), 0.1, 1.0 / 3, math.SmallestNonzeroFloat64, -math.MaxFloat64}
	reqs := []*ObjectInsertRequest{
		{Point: point},
		{Point: awkward},
		{Samples: []SampleSpec{{P: 0.25, Loc: []float64{1.5, 2}}, {P: 0.75, Loc: awkward}}},
		{PDF: &PDFObjectSpec{Kind: "uniform", Min: []float64{1, 2}, Max: []float64{3, 4.125}}},
		{PDF: &PDFObjectSpec{Kind: "gaussian", Min: []float64{1, 2}, Max: []float64{3, 4}, Mean: []float64{2, 3}, Sigma: []float64{0.5, 1.0 / 3}}},
	}
	// %#v prints every float in its shortest exact form, -0 included.
	show := func(r *ObjectInsertRequest) string {
		flat := *r
		flat.PDF = nil
		return fmt.Sprintf("%#v %#v", flat, r.PDF)
	}
	for i, req := range reqs {
		data, err := encodeMutationPayload(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeMutationPayload(data)
		if err != nil {
			t.Fatalf("req %d: %v", i, err)
		}
		if show(got) != show(req) {
			t.Fatalf("req %d: decoded %s, encoded %s", i, show(got), show(req))
		}
	}
	data, _ := encodeMutationPayload(reqs[0])
	if len(data) >= 64 {
		t.Fatalf("a 2-d point's payload takes %d bytes, want < 64", len(data))
	}
}

// TestGobMutationPayloadReplays recovers data directories whose inserts
// carry the gob payload earlier versions wrote, on all three models, and
// demands byte-identical dataset info and query responses to directories
// whose inserts carry the current payload.
func TestGobMutationPayloadReplays(t *testing.T) {
	cases := []struct {
		reg   *DatasetRequest
		ins   *ObjectInsertRequest
		alpha float64
	}{
		{flipScenario, &ObjectInsertRequest{Point: []float64{2, 0.5}}, 1},
		{flipSampleScenario, &ObjectInsertRequest{Samples: []SampleSpec{{P: 0.5, Loc: []float64{2, 0.5}}, {P: 0.5, Loc: []float64{3, 3}}}}, 0.5},
		{flipPDFScenario, &ObjectInsertRequest{PDF: &PDFObjectSpec{Kind: "uniform", Min: []float64{2, 0.5}, Max: []float64{2.5, 1}}}, 0.5},
	}
	recoverWith := func(reg *DatasetRequest, data []byte, alpha float64) (info, answers []byte) {
		dir := t.TempDir()
		st := openStore(t, dir)
		c1 := newTestClient(t, New(Config{Workers: 2, Store: st}))
		c1.post("/v1/datasets", reg, nil, http.StatusCreated)
		if _, err := st.AppendMutation(reg.Name, store.Mutation{Op: store.MutInsert, ID: 3, Data: data}); err != nil {
			t.Fatal(err)
		}
		st.Close()
		s2 := New(Config{Workers: 2, Store: openStore(t, dir)})
		if loaded, quarantined, err := s2.LoadFromStore(); err != nil || loaded != 1 || len(quarantined) != 0 {
			t.Fatalf("%s: LoadFromStore = %d loaded, %v quarantined, err %v", reg.Name, loaded, quarantined, err)
		}
		c2 := newTestClient(t, s2)
		_, info = c2.do(http.MethodGet, "/v1/datasets/"+reg.Name, nil)
		resp, answers := c2.do(http.MethodPost, "/v1/query", &QueryRequest{Dataset: reg.Name, Q: flipQ, Alpha: alpha, NoCache: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: query status %d (%s)", reg.Name, resp.StatusCode, answers)
		}
		return info, answers
	}
	for _, c := range cases {
		var legacy bytes.Buffer
		if err := gob.NewEncoder(&legacy).Encode(c.ins); err != nil {
			t.Fatal(err)
		}
		current, err := encodeMutationPayload(c.ins)
		if err != nil {
			t.Fatal(err)
		}
		gobInfo, gobAnswers := recoverWith(c.reg, legacy.Bytes(), c.alpha)
		info, answers := recoverWith(c.reg, current, c.alpha)
		if !bytes.Equal(gobInfo, info) || !bytes.Equal(gobAnswers, answers) {
			t.Fatalf("%s: gob payload recovers %s %s, current payload %s %s",
				c.reg.Name, gobInfo, gobAnswers, info, answers)
		}
		if !strings.Contains(string(info), `"size":4`) {
			t.Fatalf("%s: recovered info %s, want the insert replayed", c.reg.Name, info)
		}
	}
}

// watchStream opens a /v2/watch subscription and returns a line reader
// over the NDJSON stream plus a closer.
func watchStream(t *testing.T, c *testClient, req *WatchRequest) (*bufio.Scanner, func()) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpReq, err := http.NewRequest(http.MethodPost, c.ts.URL+"/v2/watch", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.ts.Client().Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var buf [512]byte
		n, _ := resp.Body.Read(buf[:])
		t.Fatalf("watch: status %d (%s)", resp.StatusCode, buf[:n])
	}
	return bufio.NewScanner(resp.Body), func() { resp.Body.Close() }
}

func nextEvent(t *testing.T, sc *bufio.Scanner) watch.Event {
	t.Helper()
	done := make(chan struct{})
	var ev watch.Event
	go func() {
		defer close(done)
		if !sc.Scan() {
			t.Errorf("watch stream ended: %v", sc.Err())
			return
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Errorf("bad watch line %q: %v", sc.Text(), err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a watch event")
	}
	return ev
}

// TestWatchFlipOnDelete is the headline acceptance path: subscribe to the
// blocked non-answer, delete its blocking cause over HTTP (durably), and
// receive exactly one terminal "flipped" event at the post-mutation
// generation.
func TestWatchFlipOnDelete(t *testing.T) {
	s := New(Config{Workers: 4, Store: openStore(t, t.TempDir())})
	c := newTestClient(t, s)
	c.post("/v1/datasets", flipScenario, nil, http.StatusCreated)

	sc, closeStream := watchStream(t, c, &WatchRequest{Dataset: "flip", Q: flipQ, An: 1})
	defer closeStream()
	reg := nextEvent(t, sc)
	if reg.Event != watch.KindRegistered || reg.An != 1 || reg.Answer {
		t.Fatalf("first line = %+v, want registered", reg)
	}

	var mr MutationResponse
	resp, raw := c.do(http.MethodDelete, "/v2/datasets/flip/objects/0", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d (%s)", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &mr); err != nil {
		t.Fatal(err)
	}

	ev := nextEvent(t, sc)
	if ev.Event != watch.KindFlipped || ev.An != 1 || !ev.Answer {
		t.Fatalf("flip event = %+v", ev)
	}
	if ev.Generation != mr.Generation {
		t.Fatalf("flip generation = %d, mutation installed %d", ev.Generation, mr.Generation)
	}
	// Terminal: the stream ends, no second event.
	if sc.Scan() {
		t.Fatalf("unexpected event after terminal flip: %q", sc.Text())
	}
	s.watch.WaitIdle()
	if st := s.watch.Stats(); st.Flipped != 1 {
		t.Fatalf("watch stats = %+v, want exactly one flip", st)
	}
}

// TestWatchDeletedAnTerminates: deleting the WATCHED object itself ends
// the stream with a terminal "deleted" event, no re-evaluation needed.
func TestWatchDeletedAnTerminates(t *testing.T) {
	c := newTestClient(t, New(Config{Workers: 2}))
	c.post("/v1/datasets", flipScenario, nil, http.StatusCreated)
	sc, closeStream := watchStream(t, c, &WatchRequest{Dataset: "flip", Q: flipQ, An: 1})
	defer closeStream()
	if ev := nextEvent(t, sc); ev.Event != watch.KindRegistered {
		t.Fatalf("first line = %+v", ev)
	}
	if resp, raw := c.do(http.MethodDelete, "/v2/datasets/flip/objects/1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d (%s)", resp.StatusCode, raw)
	}
	if ev := nextEvent(t, sc); ev.Event != watch.KindDeleted || ev.An != 1 {
		t.Fatalf("event = %+v, want deleted", ev)
	}
}

// TestWatchPrunesUnaffected: a mutation far outside the subscription's
// dominance window must be skipped without a re-evaluation round
// touching the subscriber.
func TestWatchPrunesUnaffected(t *testing.T) {
	s := New(Config{Workers: 2})
	c := newTestClient(t, s)
	c.post("/v1/datasets", flipScenario, nil, http.StatusCreated)
	sc, closeStream := watchStream(t, c, &WatchRequest{Dataset: "flip", Q: flipQ, An: 1})
	defer closeStream()
	if ev := nextEvent(t, sc); ev.Event != watch.KindRegistered {
		t.Fatalf("first line = %+v", ev)
	}
	// (200, 200) is far outside DomRectUnionOuter(an=(4,4), q=(0,0)).
	c.post("/v2/datasets/flip/objects", &ObjectInsertRequest{Point: []float64{200, 200}}, nil, http.StatusOK)
	s.watch.WaitIdle()
	st := s.watch.Stats()
	if st.Pruned != 1 || st.Flipped != 0 || st.Reevals != 0 {
		t.Fatalf("watch stats after out-of-window insert = %+v, want 1 pruned, 0 reevals", st)
	}
}

// TestWatchRejections covers the subscription error surface: watching an
// answer is 422, a missing object 404, an unknown dataset 404.
func TestWatchRejections(t *testing.T) {
	c := newTestClient(t, New(Config{Workers: 2}))
	c.post("/v1/datasets", flipScenario, nil, http.StatusCreated)
	// Object 0 at (1,1) IS in the reverse skyline of q.
	c.post("/v2/watch", &WatchRequest{Dataset: "flip", Q: flipQ, An: 0}, nil, http.StatusUnprocessableEntity)
	c.post("/v2/watch", &WatchRequest{Dataset: "flip", Q: flipQ, An: 99}, nil, http.StatusNotFound)
	c.post("/v2/watch", &WatchRequest{Dataset: "ghost", Q: flipQ, An: 0}, nil, http.StatusNotFound)
}

// TestWatchRepairShrunk tracks a watched non-answer's minimal repair. On
// certain data the repair is the object's dominator set (Lemma 7), so with
// two dominators the subscription registers with both; deleting one pushes
// "repair_shrunk" with the other at the delete's generation, and deleting
// the other flips the object and ends the stream.
func TestWatchRepairShrunk(t *testing.T) {
	s := New(Config{Workers: 2})
	c := newTestClient(t, s)
	c.post("/v1/datasets", &DatasetRequest{Name: "shrink", Model: ModelCertain, Points: [][]float64{
		{1, 1},   // 0: dominates q w.r.t. an
		{2, 3},   // 1: dominates q w.r.t. an
		{4, 4},   // 2: an
		{20, 20}, // 3: bystander
	}}, nil, http.StatusCreated)
	sc, closeStream := watchStream(t, c, &WatchRequest{Dataset: "shrink", Q: flipQ, An: 2, Repair: true})
	defer closeStream()
	if ev := nextEvent(t, sc); ev.Event != watch.KindRegistered || !slices.Equal(ev.Repair, []int{0, 1}) {
		t.Fatalf("first line = %+v, want registered with repair [0 1]", ev)
	}
	del := func(id int) uint64 {
		t.Helper()
		var mr MutationResponse
		resp, raw := c.do(http.MethodDelete, fmt.Sprintf("/v2/datasets/shrink/objects/%d", id), nil)
		if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &mr) != nil {
			t.Fatalf("delete %d: status %d (%s)", id, resp.StatusCode, raw)
		}
		return mr.Generation
	}

	gen := del(0)
	if ev := nextEvent(t, sc); ev.Event != watch.KindRepairShrunk || ev.An != 2 || ev.Answer ||
		ev.Generation != gen || !slices.Equal(ev.Repair, []int{1}) {
		t.Fatalf("event after the first delete = %+v, want repair_shrunk to [1] at generation %d", ev, gen)
	}
	gen = del(1)
	if ev := nextEvent(t, sc); ev.Event != watch.KindFlipped || ev.An != 2 || !ev.Answer || ev.Generation != gen {
		t.Fatalf("event after the second delete = %+v, want flipped at generation %d", ev, gen)
	}
	if sc.Scan() {
		t.Fatalf("unexpected event after terminal flip: %q", sc.Text())
	}

	s.watch.WaitIdle()
	var st StatsResponse
	c.mustGet("/v1/stats", &st)
	if st.Watch.RepairShrunk != 1 {
		t.Fatalf("watch stats = %+v, want one repair_shrunk", st.Watch)
	}
	admin := httptest.NewServer(s.AdminHandler())
	defer admin.Close()
	resp, err := http.Get(admin.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := `crsky_watch_events_total{kind="repair_shrunk"} 1`; !strings.Contains(string(body), want) {
		t.Fatalf("/metrics missing %q", want)
	}
}

// TestWatchReevalOneSlot: one re-evaluation round probes every affected
// subscription in one pool slot, whatever their (alpha, quadNodes), and
// flips exactly the subscriptions whose object entered the answer.
func TestWatchReevalOneSlot(t *testing.T) {
	s := New(Config{Workers: 2})
	c := newTestClient(t, s)
	c.post("/v1/datasets", reevalScenario, nil, http.StatusCreated)
	subs := []struct {
		an        int
		alpha     float64
		quadNodes int
		flips     bool
	}{
		{1, 0.4, 0, true}, // Pr 0.5 after the delete
		{1, 0.9, 4, false},
		{3, 0.9, 0, true},  // Pr 1
		{4, 0.3, 3, false}, // Pr 0
	}
	streams := make([]*bufio.Scanner, len(subs))
	for i, sb := range subs {
		sc, closeStream := watchStream(t, c, &WatchRequest{Dataset: "reeval", Q: flipQ, An: sb.an, Alpha: sb.alpha, QuadNodes: sb.quadNodes})
		defer closeStream()
		if ev := nextEvent(t, sc); ev.Event != watch.KindRegistered {
			t.Fatalf("subscription %d: first line = %+v", i, ev)
		}
		streams[i] = sc
	}

	var before, after StatsResponse
	c.mustGet("/v1/stats", &before)
	if resp, raw := c.do(http.MethodDelete, "/v2/datasets/reeval/objects/0", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d (%s)", resp.StatusCode, raw)
	}
	s.watch.WaitIdle()
	c.mustGet("/v1/stats", &after)
	if d := after.Watch.Reevals - before.Watch.Reevals; d != 1 {
		t.Fatalf("the delete ran %d re-evaluation rounds, want 1", d)
	}
	if d := after.Pool.Completed - before.Pool.Completed; d != 1 {
		t.Fatalf("the round took %d pool slots, want 1", d)
	}
	if d := after.Watch.Flipped - before.Watch.Flipped; d != 2 {
		t.Fatalf("the round flipped %d subscriptions, want 2", d)
	}
	for i, sb := range subs {
		if !sb.flips {
			continue
		}
		if ev := nextEvent(t, streams[i]); ev.Event != watch.KindFlipped || ev.An != sb.an || !ev.Answer {
			t.Fatalf("subscription %d: event = %+v, want flipped", i, ev)
		}
	}
}

// TestWatchTombstonedInRound: a round may read a generation that already
// tombstoned the watched object before the hub has the delete's notice.
// That round gives the subscription nothing; the notice, once it arrives,
// ends the stream with "deleted". No flipped or error line ever appears.
func TestWatchTombstonedInRound(t *testing.T) {
	for _, req := range []*DatasetRequest{flipScenario, flipSampleScenario, flipPDFScenario} {
		t.Run(req.Model, func(t *testing.T) {
			s := New(Config{Workers: 2})
			c := newTestClient(t, s)
			c.post("/v1/datasets", req, nil, http.StatusCreated)
			sc, closeStream := watchStream(t, c, &WatchRequest{Dataset: req.Name, Q: flipQ, An: 1, Alpha: 0.5})
			defer closeStream()
			if ev := nextEvent(t, sc); ev.Event != watch.KindRegistered {
				t.Fatalf("first line = %+v", ev)
			}

			// Commit the delete of the watched object without notifying
			// the hub, then run a round for an earlier, window-less notice.
			res, _, err := s.reg.mutate(req.Name, store.Mutation{Op: store.MutDelete, ID: 1})
			if err != nil {
				t.Fatal(err)
			}
			s.watch.Notify(req.Name, res.ent.gen, geom.Rect{}, false, -1)
			s.watch.WaitIdle()
			if st := s.watch.Stats(); st.Reevals != 1 || st.Flipped != 0 || st.Deleted != 0 {
				t.Fatalf("after the round over the tombstone: watch stats %+v, want 1 reeval and no event", st)
			}

			s.watch.Notify(req.Name, res.ent.gen, res.mbr, res.hasMBR, 1)
			if ev := nextEvent(t, sc); ev.Event != watch.KindDeleted || ev.An != 1 || ev.Generation != res.ent.gen {
				t.Fatalf("event = %+v, want deleted at generation %d", ev, res.ent.gen)
			}
			if sc.Scan() {
				t.Fatalf("unexpected line after the terminal deleted: %q", sc.Text())
			}
		})
	}
}

// TestNodeAccessesNeverDecrease: crsky_dataset_node_accesses_total is a
// counter since registration, and DatasetInfo.NodeAccesses reports the
// same total. Neither may go backwards when a COW mutation installs a new
// engine.
func TestNodeAccessesNeverDecrease(t *testing.T) {
	s := New(Config{Workers: 2})
	c := newTestClient(t, s)
	c.post("/v1/datasets", flipScenario, nil, http.StatusCreated)

	const series = `crsky_dataset_node_accesses_total{dataset="flip",model="certain"}`
	last := int64(0)
	check := func(step string) {
		t.Helper()
		var info DatasetInfo
		c.mustGet("/v1/datasets/flip", &info)
		fam := parseProm(t, doMetrics(t, s))["crsky_dataset_node_accesses_total"]
		if fam == nil || fam.samples[series] != float64(info.NodeAccesses) {
			t.Fatalf("%s: /metrics %v disagrees with dataset info %d", step, fam, info.NodeAccesses)
		}
		if info.NodeAccesses < last {
			t.Fatalf("%s: node accesses went from %d to %d", step, last, info.NodeAccesses)
		}
		last = info.NodeAccesses
	}

	queryAnswers(t, c, "flip", flipQ, true)
	check("query")
	if last == 0 {
		t.Fatal("query recorded no node accesses")
	}
	c.post("/v2/datasets/flip/objects", &ObjectInsertRequest{Point: []float64{30, 30}}, nil, http.StatusOK)
	check("insert")
	queryAnswers(t, c, "flip", flipQ, true)
	check("query after insert")
	if resp, raw := c.do(http.MethodDelete, "/v2/datasets/flip/objects/0", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d (%s)", resp.StatusCode, raw)
	}
	check("delete")
}

// TestNodeAccessesCountInFlightCalls: the dataset total is the sum of the
// per-call counts. The trace counters of traced misses add up to the
// /metrics delta, and a query still computing when an insert commits adds
// its node accesses after the swap instead of losing them with the
// replaced engine.
func TestNodeAccessesCountInFlightCalls(t *testing.T) {
	w := sampleWorkload(t)
	s := New(Config{Workers: 2, CacheSize: -1})
	c := newTestClient(t, s)
	c.registerSample("acc", w.ds)

	const series = `crsky_dataset_node_accesses_total{dataset="acc",model="sample"}`
	total := func() int64 {
		t.Helper()
		var info DatasetInfo
		c.mustGet("/v1/datasets/acc", &info)
		fam := parseProm(t, doMetrics(t, s))["crsky_dataset_node_accesses_total"]
		if fam == nil || fam.samples[series] != float64(info.NodeAccesses) {
			t.Fatalf("/metrics %v disagrees with dataset info %d", fam, info.NodeAccesses)
		}
		return info.NodeAccesses
	}
	// traced runs one traced cache miss and returns its join's node
	// accesses; it runs on other goroutines too, so it reports with Error.
	traced := func(q []float64) int64 {
		resp, raw := c.do(http.MethodPost, "/v1/query?trace=1", &QueryRequest{Dataset: "acc", Q: q, Alpha: 0.5})
		var qr QueryResponse
		if err := json.Unmarshal(raw, &qr); resp.StatusCode != http.StatusOK || err != nil || qr.Trace == nil {
			t.Errorf("traced query: status %d, err %v, body %s", resp.StatusCode, err, raw)
			return -1
		}
		if resp.Header.Get(headerCache) != "miss" {
			t.Errorf("traced query: cache %q, want miss", resp.Header.Get(headerCache))
		}
		return qr.Trace.Counters["rtree.joinNodeAccesses"]
	}

	before := total()
	var sum int64
	for i := 0; i < 4; i++ {
		n := traced([]float64{w.q[0] + float64(100*i), w.q[1] - float64(50*i)})
		if n <= 0 {
			t.Fatalf("traced miss %d: rtree.joinNodeAccesses = %d, want > 0", i, n)
		}
		sum += n
	}
	if got := total() - before; got != sum {
		t.Fatalf("4 traced misses: /metrics rose by %d, their trace counters sum to %d", got, sum)
	}

	// Hold a miss in its pool slot while an insert replaces the engine.
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.computeHook = func(context.Context) { entered <- struct{}{}; <-release }
	before = total()
	held := make(chan int64, 1)
	go func() { held <- traced([]float64{w.q[0] - 300, w.q[1] + 200}) }()
	<-entered
	c.post("/v2/datasets/acc/objects", &ObjectInsertRequest{Samples: []SampleSpec{{P: 1, Loc: []float64{1, 1}}}},
		nil, http.StatusOK)
	close(release)
	n := <-held
	if n <= 0 {
		t.Fatalf("held miss: rtree.joinNodeAccesses = %d, want > 0", n)
	}
	if got := total() - before; got != n {
		t.Fatalf("the miss in flight across the insert made %d node accesses, the dataset total rose by %d", n, got)
	}
}

// TestWatchMetricsExposed: the S4 observability families are on /metrics.
func TestWatchMetricsExposed(t *testing.T) {
	s := New(Config{Workers: 2})
	c := newTestClient(t, s)
	c.post("/v1/datasets", flipScenario, nil, http.StatusCreated)
	c.post("/v2/datasets/flip/objects", &ObjectInsertRequest{Point: []float64{7, 7}}, nil, http.StatusOK)

	admin := httptest.NewServer(s.AdminHandler())
	defer admin.Close()
	resp, err := http.Get(admin.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	for _, want := range []string{
		`crsky_mutations_total{op="insert",model="certain"} 1`,
		"crsky_watch_active 0",
		`crsky_watch_events_total{kind="flipped"} 0`,
		"crsky_watch_reeval_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}
