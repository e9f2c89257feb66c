package conformance

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	crsky "github.com/crsky/crsky"
	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/server"
	"github.com/crsky/crsky/internal/uncertain"
)

// This file pins the v2 batch paths to the same oracles as the single
// paths: QueryBatchStream against the naive per-object loop per query
// point (every accelerated variant), and crskyd's /v2/explain batch
// against per-item ExplainCtx. Randomized cases replay exactly like the
// rest of the harness (CRSKY_CONFORMANCE_SEED).

// TestConformanceQueryBatchSample crosses Engine.QueryBatchStream — all query
// points of a workload in one shared-join call — against the naive oracle
// per point, for every accelerated variant and threshold.
func TestConformanceQueryBatchSample(t *testing.T) {
	const workloads = 12 // x 3 alphas x variants
	forEachCaseSeed(t, 41_000, workloads, func(t *testing.T, seed int64) {
		w := newSampleWorkload(t, seed)
		eng, err := crsky.NewEngine(w.ds.Objects)
		if err != nil {
			t.Errorf("%v: %v", w, err)
			return
		}
		for _, alpha := range w.alphas {
			want := make([][]int, len(w.qs))
			for i, q := range w.qs {
				want[i], _ = causality.NaivePRSQ(w.ds, q, alpha)
			}
			for _, v := range Variants() {
				got, _, err := eng.QueryBatchStream(context.Background(), w.qs, alpha, v.Opt, nil)
				if err != nil {
					t.Errorf("%v alpha=%g variant=%s: %v", w, alpha, v.Name, err)
					return
				}
				for i := range w.qs {
					if !equalIDs(got[i], want[i]) {
						t.Errorf("%v alpha=%g variant=%s q#%d: batch %v, naive %v",
							w, alpha, v.Name, i, got[i], want[i])
						return
					}
				}
			}
		}
	})
}

// TestConformanceQueryBatchPDF crosses PDFEngine.QueryBatchStream against
// thresholding Prob per object per query point.
func TestConformanceQueryBatchPDF(t *testing.T) {
	const workloads = 8
	forEachCaseSeed(t, 42_000, workloads, func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		dims := 2 + rng.Intn(2)
		n := 25 + rng.Intn(40)
		rmax := 80 + 900*rng.Float64()
		cfg := families[rng.Intn(len(families))](n, dims, 10, rmax, rng.Int63())
		quad := 3 + rng.Intn(3)
		qs := make([]geom.Point, 3)
		for i := range qs {
			qs[i] = randomQuery(rng, cfg)
		}
		alpha := 0.2 + 0.6*rng.Float64()

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
		want := make([][]int, len(qs))
		for i, q := range qs {
			want[i] = pdfNaive(t, eng, q, alpha, quad)
		}
		for _, v := range Variants() {
			opt := v.Opt
			opt.QuadNodes = quad
			got, _, err := eng.QueryBatchStream(context.Background(), qs, alpha, opt, nil)
			if err != nil {
				t.Errorf("seed=%d variant=%s: %v", seed, v.Name, err)
				return
			}
			for i := range qs {
				if !equalIDs(got[i], want[i]) {
					t.Errorf("seed=%d variant=%s q#%d: batch %v, naive %v", seed, v.Name, i, got[i], want[i])
					return
				}
			}
		}
	})
}

// TestConformanceQueryBatchCertain crosses CertainEngine.QueryBatchStream
// (the BBRS batch behind the interface) against the RecList traversal and
// per-query QueryCtx: identical answers, and strictly fewer node accesses
// than the per-query calls, since every traversal of the batch reads the
// root and the batch charges it once.
func TestConformanceQueryBatchCertain(t *testing.T) {
	const workloads = 20
	kinds := []dataset.CertainKind{
		dataset.Independent, dataset.Correlated, dataset.AntiCorrelated, dataset.Clustered,
	}
	forEachCaseSeed(t, 43_000, workloads, func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		cfg := dataset.CertainConfig{
			N:    40 + rng.Intn(200),
			Dims: 2 + rng.Intn(3),
			Kind: kinds[rng.Intn(len(kinds))],
			Seed: rng.Int63(),
		}
		ds, err := dataset.GenerateCertain(cfg)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		eng, err := crsky.NewCertainEngine(ds.Points)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		qs := make([]geom.Point, 3)
		for i := range qs {
			q := make(geom.Point, cfg.Dims)
			for j := range q {
				q[j] = 10000 * (0.1 + 0.8*rng.Float64())
			}
			qs[i] = q
		}
		got, bst, err := eng.QueryBatchStream(context.Background(), qs, 1, crsky.QueryOptions{}, nil)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		for i, q := range qs {
			want := bruteReverseSkyline(eng, q)
			if !equalIDs(got[i], want) {
				t.Errorf("seed=%d q#%d: batch %v, brute force %v", seed, i, got[i], want)
				return
			}
		}
		// The batch must be element-wise identical to per-query BBRS
		// (QueryCtx) and charge strictly fewer node accesses.
		var singleIO int64
		for i, q := range qs {
			single, st, err := eng.QueryCtx(context.Background(), q, 1, crsky.QueryOptions{})
			if err != nil {
				t.Errorf("seed=%d q#%d: %v", seed, i, err)
				return
			}
			if !equalIDs(got[i], single) {
				t.Errorf("seed=%d q#%d: batch %v, per-query BBRS %v", seed, i, got[i], single)
				return
			}
			singleIO += st.NodeAccesses
		}
		if bst.NodeAccesses >= singleIO {
			t.Errorf("seed=%d: batch of %d charged %d node accesses, per-query calls %d",
				seed, len(qs), bst.NodeAccesses, singleIO)
			return
		}
		// QueryBatchStream must emit every answer exactly once, ascending,
		// and each streamed answer must equal the collected one.
		var emitted []int
		_, _, serr := eng.QueryBatchStream(context.Background(), qs, 1, crsky.QueryOptions{},
			func(i int, ids []int) {
				emitted = append(emitted, i)
				if !equalIDs(ids, got[i]) {
					t.Errorf("seed=%d q#%d: streamed %v, batch %v", seed, i, ids, got[i])
				}
			})
		if serr != nil {
			t.Errorf("seed=%d: stream: %v", seed, serr)
			return
		}
		if len(emitted) != len(qs) {
			t.Errorf("seed=%d: %d emits for %d queries", seed, len(emitted), len(qs))
			return
		}
		for i, k := range emitted {
			if k != i {
				t.Errorf("seed=%d: emit order %v, want ascending", seed, emitted)
				return
			}
		}
		// The interface must reject a non-unit alpha on certain data.
		if _, _, err := eng.QueryBatchStream(context.Background(), qs, 0.5, crsky.QueryOptions{}, nil); !errors.Is(err, crsky.ErrBadAlpha) {
			t.Errorf("seed=%d: alpha=0.5 on certain data returned %v, want ErrBadAlpha", seed, err)
		}
	})
}

// TestConformanceQueryBatchCertainSharedIO pins the batch's saving at index
// scale, where the upper tree levels that every query re-reads dominate:
// one batch must charge strictly fewer node accesses than the per-query
// BBRS calls it replaces, on one sizeable deterministic workload (the
// randomized small cases above hold the same gate).
func TestConformanceQueryBatchCertainSharedIO(t *testing.T) {
	rng := rand.New(rand.NewSource(4301))
	cfg := dataset.CertainConfig{N: 4000, Dims: 3, Kind: dataset.Clustered, Seed: 4301}
	ds, err := dataset.GenerateCertain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := crsky.NewCertainEngine(ds.Points)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]geom.Point, 8)
	for i := range qs {
		q := make(geom.Point, cfg.Dims)
		for j := range q {
			q[j] = 10000 * (0.1 + 0.8*rng.Float64())
		}
		qs[i] = q
	}
	single := make([][]int, len(qs))
	var singleIO int64
	for i, q := range qs {
		ids, st, err := eng.QueryCtx(context.Background(), q, 1, crsky.QueryOptions{})
		if err != nil {
			t.Fatalf("q#%d: %v", i, err)
		}
		single[i] = ids
		singleIO += st.NodeAccesses
	}

	got, st, err := eng.QueryBatchStream(context.Background(), qs, 1, crsky.QueryOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	batchIO := st.NodeAccesses

	for i := range qs {
		if !equalIDs(got[i], single[i]) {
			t.Fatalf("q#%d: batch %v, per-query BBRS %v", i, got[i], single[i])
		}
	}
	if batchIO >= singleIO {
		t.Fatalf("batch I/O %d not below %d per-query traversals' %d", batchIO, len(qs), singleIO)
	}
	t.Logf("%d queries: %d batch accesses vs %d per-query", len(qs), batchIO, singleIO)
}

// TestConformanceExplainBatch crosses crskyd's /v2/explain, every object of
// a workload as one batch on an in-process server, against per-item
// ExplainCtx on the sample model: identical causes, responsibilities,
// contingency sizes and SubsetsExamined counts (each item's search is
// serial, so its count is deterministic), and identical per-item error
// classification (an answer in the batch fails with ErrNotNonAnswer
// exactly like the single call).
func TestConformanceExplainBatch(t *testing.T) {
	const workloads = 10
	ts := httptest.NewServer(server.New(server.Config{CacheSize: -1}).Handler())
	defer ts.Close()
	forEachCaseSeed(t, 44_000, workloads, func(t *testing.T, seed int64) {
		ds, q, alpha := explainWorkload(t, seed)
		eng, err := crsky.NewEngine(ds.Objects)
		if err != nil {
			t.Errorf("seed=%d: %v", seed, err)
			return
		}
		// Every object goes into the batch: answers exercise the per-item
		// error path, non-answers the result path.
		chaosRegister(t, ts, ds)
		reqs := make([]server.BatchExplainItemRequest, ds.Len())
		for id := range reqs {
			reqs[id] = server.BatchExplainItemRequest{Q: q, An: id}
		}
		resp, raw, err := chaosPost(ts, context.Background(), "/v2/explain",
			&server.BatchExplainRequest{Dataset: "chaos", Items: reqs, Alpha: alpha}, false)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("seed=%d: /v2/explain: %v status=%v body=%s", seed, err, resp, raw)
			return
		}
		lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
		if len(lines) != len(reqs) {
			t.Errorf("seed=%d: %d lines, want %d", seed, len(lines), len(reqs))
			return
		}
		for id, line := range lines {
			ctx := fmt.Sprintf("seed=%d an=%d", seed, id)
			var item server.BatchExplainItem
			if err := json.Unmarshal([]byte(line), &item); err != nil {
				t.Errorf("%s: bad line %q: %v", ctx, line, err)
				return
			}
			if item.Index != id {
				t.Errorf("%s: index %d", ctx, item.Index)
				return
			}
			want, wantErr := eng.ExplainCtx(context.Background(), id, q, alpha, crsky.Options{})
			if (item.Explain != nil) != (wantErr == nil) {
				t.Errorf("%s: batch line %s, single err %v", ctx, line, wantErr)
				return
			}
			if wantErr != nil {
				if !errors.Is(wantErr, crsky.ErrNotNonAnswer) || !strings.Contains(item.Error, crsky.ErrNotNonAnswer.Error()) {
					t.Errorf("%s: error classification diverged: batch %q, single %v", ctx, item.Error, wantErr)
					return
				}
				continue
			}
			g, w := item.Explain, want
			if len(g.Causes) != len(w.Causes) {
				t.Errorf("%s: %d causes, single has %d", ctx, len(g.Causes), len(w.Causes))
				return
			}
			for i := range w.Causes {
				if g.Causes[i].ID != w.Causes[i].ID ||
					math.Abs(g.Causes[i].Responsibility-w.Causes[i].Responsibility) > 1e-12 ||
					len(g.Causes[i].Contingency) != len(w.Causes[i].Contingency) {
					t.Errorf("%s: cause %d diverged: %+v vs %+v", ctx, i, g.Causes[i], w.Causes[i])
					return
				}
			}
			if g.SubsetsExamined != w.SubsetsExamined {
				t.Errorf("%s: batch examined %d subsets, single %d", ctx, g.SubsetsExamined, w.SubsetsExamined)
				return
			}
			// Witness re-validation straight from Definition 1.
			if prob.GEq(prob.PrReverseSkyline(ds.Objects[id], q, ds.Objects), alpha) {
				t.Errorf("%s: explained object is an answer", ctx)
				return
			}
		}
	})
}
