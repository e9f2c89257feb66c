package conformance

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	crsky "github.com/crsky/crsky"
	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/server"
	"github.com/crsky/crsky/internal/uncertain"
	"github.com/crsky/crsky/internal/watch"
)

// rebuildWithout builds a fresh engine over objs minus the given IDs and
// returns it with the old->new ID mapping (-1 = removed).
func rebuildWithout(t *testing.T, objs []*uncertain.Object, drop map[int]bool) (*crsky.Engine, []int) {
	t.Helper()
	newID := make([]int, len(objs))
	kept := make([]*uncertain.Object, 0, len(objs))
	for i, o := range objs {
		if drop[i] {
			newID[i] = -1
			continue
		}
		newID[i] = len(kept)
		kept = append(kept, uncertain.New(len(kept), o.Samples))
	}
	eng, err := crsky.NewEngine(kept)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	return eng, newID
}

func contains(ids []int, id int) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// TestCausalityDeleteCauseFlipsSample closes the loop between the causality
// oracle and the query engines: for every actual cause (p, Γ) of a
// non-answer reported by the brute Definition-1 oracle, deleting Γ must
// leave the object a non-answer of the accelerated query, and additionally
// deleting p must flip it into the answer set.
func TestCausalityDeleteCauseFlipsSample(t *testing.T) {
	forEachCaseSeed(t, 21_000, 12, func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		cfg := dataset.LUrU(7, 2, 0, 2500+2500*rng.Float64(), rng.Int63())
		cfg.Samples = 1 + rng.Intn(3)
		cfg.Domain = 1000
		ds, err := dataset.GenerateUncertain(cfg)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		q := geom.Point{1000 * rng.Float64(), 1000 * rng.Float64()}
		alpha := 0.4 + 0.6*rng.Float64()

		eng, err := crsky.NewEngine(ds.Objects)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		answers := query(t, eng, q, alpha, crsky.QueryOptions{})
		checked := 0
		for an := 0; an < ds.Len() && checked < 2; an++ {
			if contains(answers, an) {
				continue
			}
			causes := causality.BruteCausesUncertain(ds.Objects, q, an, alpha)
			if len(causes) == 0 {
				continue
			}
			checked++
			for ci, c := range causes {
				if ci >= 3 {
					break
				}
				drop := map[int]bool{}
				for _, id := range c.Contingency {
					drop[id] = true
				}
				gammaEng, newID := rebuildWithout(t, ds.Objects, drop)
				if contains(query(t, gammaEng, q, alpha, crsky.QueryOptions{}), newID[an]) {
					t.Errorf("seed=%d an=%d cause=%d Γ=%v: removing the contingency alone already flipped the non-answer",
						seed, an, c.ID, c.Contingency)
					return
				}
				drop[c.ID] = true
				flipEng, newID := rebuildWithout(t, ds.Objects, drop)
				if !contains(query(t, flipEng, q, alpha, crsky.QueryOptions{}), newID[an]) {
					t.Errorf("seed=%d an=%d cause=%d Γ=%v: removing cause+contingency did not flip the non-answer",
						seed, an, c.ID, c.Contingency)
					return
				}
			}
		}
	})
}

// TestCausalityLiveFlipThroughWatch drives the delete-cause flip oracle
// through the live serving path: register the dataset over HTTP, open a
// /v2/watch subscription on a non-answer, delete the reported cause's
// contingency and then the cause itself via the mutation API, and assert
// the stream delivers exactly one terminal "flipped" event — whose answer
// the naive oracle confirms on the post-delete dataset.
func TestCausalityLiveFlipThroughWatch(t *testing.T) {
	forEachCaseSeed(t, 24_000, 6, func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		cfg := dataset.LUrU(7, 2, 0, 2500+2500*rng.Float64(), rng.Int63())
		cfg.Samples = 1 + rng.Intn(3)
		cfg.Domain = 1000
		ds, err := dataset.GenerateUncertain(cfg)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		q := geom.Point{1000 * rng.Float64(), 1000 * rng.Float64()}
		alpha := 0.4 + 0.6*rng.Float64()

		eng, err := crsky.NewEngine(ds.Objects)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		answers := query(t, eng, q, alpha, crsky.QueryOptions{})

		// Pick the first non-answer with at least one brute-oracle cause.
		an, cause := -1, causality.Cause{}
		for i := 0; i < ds.Len() && an < 0; i++ {
			if contains(answers, i) {
				continue
			}
			if causes := causality.BruteCausesUncertain(ds.Objects, q, i, alpha); len(causes) > 0 {
				an, cause = i, causes[0]
			}
		}
		if an < 0 {
			return // no explainable non-answer in this draw; next seed
		}

		srv := server.New(server.Config{Workers: 2})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		specs := make([]server.ObjectSpec, ds.Len())
		for i, o := range ds.Objects {
			ss := make([]server.SampleSpec, len(o.Samples))
			for j, s := range o.Samples {
				ss[j] = server.SampleSpec{P: s.P, Loc: s.Loc}
			}
			specs[i] = server.ObjectSpec{Samples: ss}
		}
		postJSON(t, ts, "/v1/datasets", &server.DatasetRequest{
			Name: "live", Model: server.ModelSample, Objects: specs,
		}, http.StatusCreated)

		wreq, _ := json.Marshal(&server.WatchRequest{Dataset: "live", Q: q, An: an, Alpha: alpha})
		resp, err := ts.Client().Post(ts.URL+"/v2/watch", "application/json", bytes.NewReader(wreq))
		if err != nil {
			t.Fatalf("seed=%d: watch: %v", seed, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed=%d: watch status %d", seed, resp.StatusCode)
		}
		sc := bufio.NewScanner(resp.Body)
		if ev := nextWatchEvent(t, sc); ev.Event != watch.KindRegistered {
			t.Fatalf("seed=%d: first line %+v, want registered", seed, ev)
		}

		// Contingency first: by monotonicity no prefix of Γ can flip an, so
		// the stream must stay silent until the cause itself goes.
		var lastGen uint64
		for _, id := range append(append([]int(nil), cause.Contingency...), cause.ID) {
			var mr server.MutationResponse
			deleteObject(t, ts, "/v2/datasets/live/objects/"+strconv.Itoa(id), &mr)
			lastGen = mr.Generation
		}

		ev := nextWatchEvent(t, sc)
		if ev.Event != watch.KindFlipped || !ev.Answer || ev.An != an {
			t.Fatalf("seed=%d an=%d cause=%d Γ=%v: event %+v, want flipped",
				seed, an, cause.ID, cause.Contingency, ev)
		}
		if ev.Generation < lastGen {
			t.Fatalf("seed=%d: flip at generation %d, final delete installed %d",
				seed, ev.Generation, lastGen)
		}
		// Terminal: exactly one flipped event, then EOF.
		if sc.Scan() {
			t.Fatalf("seed=%d: unexpected event after terminal flip: %q", seed, sc.Text())
		}

		// The naive oracle on the post-delete dataset must agree the flip is
		// real.
		drop := map[int]bool{cause.ID: true}
		for _, id := range cause.Contingency {
			drop[id] = true
		}
		flipEng, newID := rebuildWithout(t, ds.Objects, drop)
		if !contains(query(t, flipEng, q, alpha, crsky.QueryOptions{}), newID[an]) {
			t.Fatalf("seed=%d an=%d cause=%d Γ=%v: watch flipped but the oracle disagrees",
				seed, an, cause.ID, cause.Contingency)
		}
	})
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any, wantStatus int) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: status %d, want %d (%s)", path, resp.StatusCode, wantStatus, msg)
	}
}

func deleteObject(t *testing.T, ts *httptest.Server, path string, out *server.MutationResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE %s: status %d (%s)", path, resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("DELETE %s: bad ack %s: %v", path, raw, err)
	}
}

func nextWatchEvent(t *testing.T, sc *bufio.Scanner) watch.Event {
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
	case <-time.After(15 * time.Second):
		t.Fatal("timed out waiting for a watch event")
	}
	return ev
}

// TestCausalityDeleteCauseFlipsPDF is the continuous-model version: for
// every cause (p, Γ) the pdf-variant CP reports, the cubature oracle at the
// explanation's own quadrature resolution must show Pr(an | P−Γ) still
// below α and Pr(an | P−Γ−{p}) at or above it. The explanation is also run
// through VerifyCtx, which performs the same audit inside the engine — the
// carve-out this suite used to have for the pdf model is gone.
func TestCausalityDeleteCauseFlipsPDF(t *testing.T) {
	forEachCaseSeed(t, 23_000, 10, func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		cfg := dataset.LUrU(7, 2, 10, 150+350*rng.Float64(), rng.Int63())
		objs, err := dataset.GenerateUncertainPDF(cfg, uncertain.Uniform)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		eng, err := crsky.NewPDFEngine(objs)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		dom := cfg.EffectiveDomain()
		q := geom.Point{dom * (0.2 + 0.6*rng.Float64()), dom * (0.2 + 0.6*rng.Float64())}
		alpha := 0.4 + 0.5*rng.Float64()
		quad := 4

		prWithout := func(an int, drop map[int]bool) float64 {
			kept := make([]*uncertain.PDFObject, 0, len(objs))
			for _, o := range objs {
				if !drop[o.ID] {
					kept = append(kept, o)
				}
			}
			return prob.PrReverseSkylinePDF(objs[an], q, kept, quad)
		}

		answers := pdfNaive(t, eng, q, alpha, quad)
		checked := 0
		for an := 0; an < eng.Len() && checked < 2; an++ {
			if contains(answers, an) {
				continue
			}
			res, err := eng.ExplainCtx(context.Background(), an, q, alpha, crsky.Options{QuadNodes: quad})
			if err != nil || len(res.Causes) == 0 {
				if err != nil {
					t.Errorf("seed=%d an=%d: %v", seed, an, err)
					return
				}
				continue
			}
			checked++
			if err := eng.VerifyCtx(context.Background(), q, alpha, res); err != nil {
				t.Errorf("seed=%d an=%d: verify: %v", seed, an, err)
				return
			}
			for ci, c := range res.Causes {
				if ci >= 3 {
					break
				}
				drop := map[int]bool{}
				for _, id := range c.Contingency {
					drop[id] = true
				}
				if prob.GEq(prWithout(an, drop), alpha) {
					t.Errorf("seed=%d an=%d cause=%d Γ=%v: removing the contingency alone already flipped the non-answer",
						seed, an, c.ID, c.Contingency)
					return
				}
				drop[c.ID] = true
				if !prob.GEq(prWithout(an, drop), alpha) {
					t.Errorf("seed=%d an=%d cause=%d Γ=%v: removing cause+contingency did not flip the non-answer",
						seed, an, c.ID, c.Contingency)
					return
				}
			}
		}
	})
}

// withDeletes returns the copy-on-write successor of e with every id in
// ids tombstoned, one WithDelete at a time; e itself is left unchanged.
func withDeletes(e *crsky.CertainEngine, ids ...int) (*crsky.CertainEngine, error) {
	for _, id := range ids {
		next, err := e.WithDelete(id)
		if err != nil {
			return nil, fmt.Errorf("delete %d: %w", id, err)
		}
		e = next.(*crsky.CertainEngine)
	}
	return e, nil
}

// TestCausalityDeleteCauseFlipsCertain is the certain-data version driven by
// algorithm CR and the engine's copy-on-write deletes: removing a reported
// cause plus its contingency set from the index flips the non-answer.
func TestCausalityDeleteCauseFlipsCertain(t *testing.T) {
	forEachCaseSeed(t, 22_000, 12, func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		cfg := dataset.CertainConfig{
			N:    25 + rng.Intn(75),
			Dims: 2 + rng.Intn(2),
			Kind: dataset.CertainKind(rng.Intn(4)),
			Seed: rng.Int63(),
		}
		ds, err := dataset.GenerateCertain(cfg)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		q := make(geom.Point, cfg.Dims)
		for j := range q {
			q[j] = 10000 * (0.2 + 0.6*rng.Float64())
		}

		eng, err := crsky.NewCertainEngine(ds.Points)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		an := -1
		for i := range ds.Points {
			if !certainMember(eng, i, q) {
				an = i
				break
			}
		}
		if an < 0 {
			return
		}
		res, err := eng.ExplainCtx(context.Background(), an, q, 1, crsky.Options{})
		if err != nil || len(res.Causes) == 0 {
			if err != nil {
				t.Errorf("seed=%d an=%d: %v", seed, an, err)
			}
			return
		}
		for ci, c := range res.Causes {
			if ci >= 3 {
				break
			}
			live, err := withDeletes(eng, c.Contingency...)
			if err != nil {
				t.Errorf("seed=%d: %v", seed, err)
				return
			}
			if certainMember(live, an, q) {
				t.Errorf("seed=%d an=%d cause=%d Γ=%v: contingency alone flipped the non-answer",
					seed, an, c.ID, c.Contingency)
				return
			}
			if live, err = withDeletes(live, c.ID); err != nil {
				t.Errorf("seed=%d: %v", seed, err)
				return
			}
			if !certainMember(live, an, q) {
				t.Errorf("seed=%d an=%d cause=%d Γ=%v: cause+contingency did not flip the non-answer",
					seed, an, c.ID, c.Contingency)
				return
			}
		}
	})
}
