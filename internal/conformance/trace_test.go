package conformance

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	crsky "github.com/crsky/crsky"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/obs"
)

// The tracing instrumentation threads an obs.Trace through the query and
// explanation hot paths. It must be purely observational: every engine
// must return bit-identical results whether or not a trace rides the
// context — and when one does, it must actually record the stage spans.
// Any divergence means a span boundary moved real control flow.

// tracedCtx returns a context carrying a fresh trace alongside the trace.
func tracedCtx() (context.Context, *obs.Trace) {
	tr := obs.New()
	return obs.WithTrace(context.Background(), tr), tr
}

func spanNames(tr *obs.Trace) map[string]bool {
	m := map[string]bool{}
	for _, sp := range tr.Spans() {
		m[sp.Name] = true
	}
	return m
}

func TestTraceBitIdenticalSample(t *testing.T) {
	const workloads = 8
	forEachCaseSeed(t, 7_000, workloads, func(t *testing.T, seed int64) {
		w := newSampleWorkload(t, seed)
		eng, err := crsky.NewEngine(w.ds.Objects)
		if err != nil {
			t.Errorf("%v: %v", w, err)
			return
		}
		opts := crsky.QueryOptions{}
		for _, q := range w.qs {
			for _, alpha := range w.alphas {
				plain, plainStats, err := eng.QueryCtx(context.Background(), q, alpha, opts)
				if err != nil {
					t.Errorf("%v: %v", w, err)
					return
				}
				ctx, tr := tracedCtx()
				traced, tracedStats, err := eng.QueryCtx(ctx, q, alpha, opts)
				if err != nil {
					t.Errorf("%v traced: %v", w, err)
					return
				}
				if !equalIDs(plain, traced) {
					t.Errorf("%v q=%v alpha=%g: tracing changed answers: %v vs %v",
						w, q, alpha, plain, traced)
					return
				}
				if plainStats != tracedStats {
					t.Errorf("%v q=%v alpha=%g: tracing changed stats: %+v vs %+v",
						w, q, alpha, plainStats, tracedStats)
					return
				}
				spans := spanNames(tr)
				if !spans["prsq.join"] || !spans["prsq.exact"] {
					t.Errorf("%v: traced query missing stage spans: %v", w, spans)
					return
				}
				if tr.Counter("prsq.objects") != int64(w.ds.Len()) {
					t.Errorf("%v: prsq.objects counter = %d, want %d",
						w, tr.Counter("prsq.objects"), w.ds.Len())
					return
				}
			}
		}
	})
}

func TestTraceBitIdenticalExplain(t *testing.T) {
	const workloads = 6
	forEachCaseSeed(t, 8_000, workloads, func(t *testing.T, seed int64) {
		w := newSampleWorkload(t, seed)
		eng, err := crsky.NewEngine(w.ds.Objects)
		if err != nil {
			t.Errorf("%v: %v", w, err)
			return
		}
		q, alpha := w.qs[0], w.alphas[0]
		answers, _, err := eng.QueryCtx(context.Background(), q, alpha, crsky.QueryOptions{})
		if err != nil {
			t.Errorf("%v: %v", w, err)
			return
		}
		inAnswers := map[int]bool{}
		for _, id := range answers {
			inAnswers[id] = true
		}
		opts := crsky.Options{MaxCandidates: 40, MaxSubsets: 200_000}
		explained := 0
		for id := 0; id < w.ds.Len() && explained < 3; id++ {
			if inAnswers[id] {
				continue
			}
			plain, errPlain := eng.ExplainCtx(context.Background(), id, q, alpha, opts)
			ctx, tr := tracedCtx()
			traced, errTraced := eng.ExplainCtx(ctx, id, q, alpha, opts)
			if (errPlain == nil) != (errTraced == nil) {
				t.Errorf("%v an=%d: tracing changed the error: %v vs %v", w, id, errPlain, errTraced)
				return
			}
			if errPlain != nil {
				continue // intractable under the caps either way — skip
			}
			if !reflect.DeepEqual(plain, traced) {
				t.Errorf("%v an=%d: tracing changed the explanation:\n%+v\nvs\n%+v", w, id, plain, traced)
				return
			}
			spans := spanNames(tr)
			if !spans["explain.filter"] {
				t.Errorf("%v an=%d: traced explain missing filter span: %v", w, id, spans)
				return
			}
			if tr.Counter("explain.candidates") != int64(traced.Candidates) {
				t.Errorf("%v an=%d: explain.candidates = %d, result says %d",
					w, id, tr.Counter("explain.candidates"), traced.Candidates)
				return
			}
			explained++
		}
	})
}

func TestTraceBitIdenticalCertain(t *testing.T) {
	const workloads = 8
	forEachCaseSeed(t, 9_000, workloads, func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		dims := 2 + rng.Intn(3)
		n := 40 + rng.Intn(200)
		kinds := []dataset.CertainKind{dataset.Independent, dataset.Correlated, dataset.AntiCorrelated, dataset.Clustered}
		ds, err := dataset.GenerateCertain(dataset.CertainConfig{
			N: n, Dims: dims, Kind: kinds[rng.Intn(len(kinds))], Seed: rng.Int63(),
		})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return
		}
		eng, err := crsky.NewCertainEngine(ds.Points)
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return
		}
		q := make(geom.Point, dims)
		for j := range q {
			q[j] = 100 * (0.2 + 0.6*rng.Float64())
		}
		plain, _, err := eng.QueryCtx(context.Background(), q, 1, crsky.QueryOptions{})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return
		}
		ctx, tr := tracedCtx()
		traced, st, err := eng.QueryCtx(ctx, q, 1, crsky.QueryOptions{})
		if err != nil {
			t.Errorf("seed %d traced: %v", seed, err)
			return
		}
		if !equalIDs(plain, traced) {
			t.Errorf("seed %d q=%v: tracing changed certain answers: %v vs %v", seed, q, plain, traced)
			return
		}
		if !spanNames(tr)["query.bbrs"] {
			t.Errorf("seed %d: traced certain query missing query.bbrs span: %v", seed, spanNames(tr))
			return
		}
		if got := tr.Counter("query.bbrsNodeAccesses"); got != st.NodeAccesses {
			t.Errorf("seed %d: query.bbrsNodeAccesses = %d, QueryStats.NodeAccesses = %d", seed, got, st.NodeAccesses)
			return
		}
		// Every answer is a verified candidate.
		if got := tr.Counter("query.bbrsCandidates"); got < int64(len(traced)) {
			t.Errorf("seed %d: query.bbrsCandidates = %d below the %d answers", seed, got, len(traced))
			return
		}
	})
}
