package prsq

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/ctxutil"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/uncertain"
)

// TestQueryBatchMatchesPerQuery asserts element-wise identity between the
// batch query and the brute-force prob.PRSQ of every point across
// thresholds, and — the batch layer's reason to exist — strictly fewer
// total node accesses than the same points run as batches of one.
func TestQueryBatchMatchesPerQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := dataset.LUrU(1500, 3, 0, 5, 11)
	ds, err := dataset.GenerateUncertain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds.WeightSums()
	ds.Summaries()

	dom := cfg.EffectiveDomain()
	qs := make([]geom.Point, 16)
	for i := range qs {
		qs[i] = geom.Point{dom * rng.Float64(), dom * rng.Float64(), dom * rng.Float64()}
	}
	for _, alpha := range []float64{0.3, 0.9} {
		want := make([][]int, len(qs))
		for i, q := range qs {
			want[i] = prob.PRSQ(ds.Objects, q, alpha)
		}
		var singleIO int64
		for _, q := range qs {
			_, st := queryStats(t, ds, q, alpha, Options{})
			singleIO += st.NodeAccesses
		}

		got, st, err := QueryBatchStreamStatsCtx(context.Background(), ds, qs, alpha, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		batchIO := st.NodeAccesses

		for i := range qs {
			if !equalIDs(got[i], want[i]) {
				t.Fatalf("alpha=%g q#%d: batch %v, brute force %v", alpha, i, got[i], want[i])
			}
		}
		decided := st.EmptyCandidates + st.AcceptedByBound + st.RejectedByBound +
			st.AcceptedByTier2 + st.RejectedByTier2 + st.Evaluated
		if decided != ds.Len()*len(qs) {
			t.Fatalf("alpha=%g: stats decide %d of %d object-queries (%+v)",
				alpha, decided, ds.Len()*len(qs), st)
		}
		if batchIO >= singleIO {
			t.Fatalf("alpha=%g: batch charged %d node accesses, batches of one %d — no amortization",
				alpha, batchIO, singleIO)
		}
	}
}

// TestQueryBatchPDFMatchesPerQuery is the continuous-model counterpart on a
// smaller instance (quadrature is the dominant cost), against brute-force
// quadrature over every object.
func TestQueryBatchPDFMatchesPerQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg := dataset.LUrU(150, 2, 10, 400, 12)
	objs, err := dataset.GenerateUncertainPDF(cfg, uncertain.Uniform)
	if err != nil {
		t.Fatal(err)
	}
	set, err := causality.NewPDFSet(objs)
	if err != nil {
		t.Fatal(err)
	}

	dom := cfg.EffectiveDomain()
	qs := make([]geom.Point, 8)
	for i := range qs {
		qs[i] = geom.Point{dom * rng.Float64(), dom * rng.Float64()}
	}
	const quad = 4
	for _, alpha := range []float64{0.4, 0.9} {
		var singleIO int64
		for _, q := range qs {
			_, st := queryPDFStats(t, set, q, alpha, quad, Options{})
			singleIO += st.NodeAccesses
		}

		got, st, err := QueryBatchPDFStreamStatsCtx(context.Background(), set, qs, alpha, quad, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		batchIO := st.NodeAccesses

		for i, q := range qs {
			if want := pdfPRSQ(set, q, alpha, quad); !equalIDs(got[i], want) {
				t.Fatalf("alpha=%g q#%d: batch %v, brute force %v", alpha, i, got[i], want)
			}
		}
		if batchIO >= singleIO {
			t.Fatalf("alpha=%g: batch charged %d node accesses, batches of one %d", alpha, batchIO, singleIO)
		}
	}
}

// TestQueryBatchCanceled asserts a dead context stops the batch before any
// verdict is produced and surfaces the typed error.
func TestQueryBatchCanceled(t *testing.T) {
	ds, err := dataset.GenerateUncertain(dataset.LUrU(200, 2, 0, 5, 3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	qs := []geom.Point{{100, 100}, {500, 500}}
	out, _, err := QueryBatchStreamStatsCtx(ctx, ds, qs, 0.5, Options{}, nil)
	if err == nil || out != nil {
		t.Fatalf("canceled batch returned out=%v err=%v", out, err)
	}
}

// pollDeadline is a context whose deadline passes at its polls-th Err
// call. The join is the first stage to poll, so a small polls makes the
// deadline fire inside the join on any machine, however fast: a wall-clock
// deadline races a join that finishes in a few hundred milliseconds.
type pollDeadline struct {
	context.Context
	polls atomic.Int64
}

func (c *pollDeadline) Err() error {
	if c.polls.Add(-1) < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestQueryBatchDeadlineInJoin pins a deadline that fires inside the join
// of a 64-point batch at n=20k: the call returns a *ctxutil.CanceledError
// wrapping DeadlineExceeded, with no answers, no exact evaluation, and the
// node accesses of the part of the join that ran — more than none, fewer
// than the whole join's.
func TestQueryBatchDeadlineInJoin(t *testing.T) {
	ds, err := dataset.GenerateUncertain(dataset.LUrU(20_000, 3, 0, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	ds.Tree()
	ds.WeightSums()
	ds.Summaries()
	rng := rand.New(rand.NewSource(1))
	qs := make([]geom.Point, 64)
	for i := range qs {
		qs[i] = geom.Point{
			10000 * (0.3 + 0.4*rng.Float64()),
			10000 * (0.3 + 0.4*rng.Float64()),
			10000 * (0.3 + 0.4*rng.Float64()),
		}
	}
	_, full, err := QueryBatchStreamStatsCtx(context.Background(), ds, qs, 0.5, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &pollDeadline{Context: parent}
	ctx.polls.Store(2048)
	out, st, err := QueryBatchStreamStatsCtx(ctx, ds, qs, 0.5, Options{}, nil)
	var ce *ctxutil.CanceledError
	if !errors.As(err, &ce) || !errors.Is(err, context.DeadlineExceeded) || ce.Evaluated != 0 || out != nil {
		t.Fatalf("out = %v, err = %v, want no answers and a join-stage deadline cancellation", out, err)
	}
	if st.NodeAccesses <= 0 || st.NodeAccesses >= full.NodeAccesses {
		t.Fatalf("canceled join read %d nodes, want more than 0 and fewer than the whole join's %d",
			st.NodeAccesses, full.NodeAccesses)
	}
	t.Logf("join canceled after %d of %d node accesses", st.NodeAccesses, full.NodeAccesses)
}

// TestQueryBatchDeadlineInExact pins a deadline that fires inside the exact
// stage of a six-point batch, sample and pdf. A run whose deadline never
// fires counts the batch's polls; the exact stage polls once before each
// evaluation, so a deadline set m polls before that count fires after all
// but m of the full run's evaluations. The call returns a
// *ctxutil.CanceledError wrapping DeadlineExceeded that counts exactly
// those evaluations, and no answers; emit has fired exactly once for each
// point of the request-order prefix whose bands those evaluations settled
// (each point's band measured as a batch of one), each time with the full
// run's answer.
func TestQueryBatchDeadlineInExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds, err := dataset.GenerateUncertain(dataset.LUrU(400, 2, 50, 900, 17))
	if err != nil {
		t.Fatal(err)
	}
	objs, err := dataset.GenerateUncertainPDF(dataset.LUrU(150, 2, 10, 400, 12), uncertain.Uniform)
	if err != nil {
		t.Fatal(err)
	}
	set, err := causality.NewPDFSet(objs)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]geom.Point, 6)
	for i := range qs {
		qs[i] = geom.Point{10000 * (0.3 + 0.4*rng.Float64()), 10000 * (0.3 + 0.4*rng.Float64())}
	}
	type queryFunc func(ctx context.Context, qs []geom.Point, emit func(int, []int)) ([][]int, Stats, error)
	for _, tc := range []struct {
		name string
		run  queryFunc
	}{
		{"sample", func(ctx context.Context, qs []geom.Point, emit func(int, []int)) ([][]int, Stats, error) {
			return QueryBatchStreamStatsCtx(ctx, ds, qs, 0.5, Options{}, emit)
		}},
		{"pdf", func(ctx context.Context, qs []geom.Point, emit func(int, []int)) ([][]int, Stats, error) {
			return QueryBatchPDFStreamStatsCtx(ctx, set, qs, 0.5, 4, Options{}, emit)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parent, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctx := &pollDeadline{Context: parent}
			ctx.polls.Store(math.MaxInt64)
			full, fullStats, err := tc.run(ctx, qs, nil)
			if err != nil {
				t.Fatal(err)
			}
			polls := math.MaxInt64 - ctx.polls.Load()
			m := fullStats.Evaluated / 2
			done := fullStats.Evaluated - m // evaluations before the deadline
			prefix, settled := 0, 0
			for k := range qs {
				_, st, err := tc.run(context.Background(), qs[k:k+1], nil)
				if err != nil {
					t.Fatal(err)
				}
				if settled += st.Evaluated; settled > done {
					break
				}
				prefix++
			}
			if m == 0 || prefix == 0 {
				t.Fatalf("%d evaluations, %d points settled after %d of them: pick a batch whose deadline can fall inside a later point's band",
					fullStats.Evaluated, prefix, done)
			}

			ctx = &pollDeadline{Context: parent}
			ctx.polls.Store(polls - int64(m))
			var emitted []int
			out, _, err := tc.run(ctx, qs, func(k int, ids []int) {
				if k != len(emitted) || !equalIDs(ids, full[k]) {
					t.Fatalf("emit(%d, %v) after points %v; the full run answers %v", k, ids, emitted, full[k])
				}
				emitted = append(emitted, k)
			})
			var ce *ctxutil.CanceledError
			if !errors.As(err, &ce) || !errors.Is(err, context.DeadlineExceeded) || out != nil {
				t.Fatalf("out = %v, err = %v, want no answers and a deadline cancellation", out, err)
			}
			if ce.Evaluated != done {
				t.Fatalf("canceled after %d of %d evaluations, want %d", ce.Evaluated, fullStats.Evaluated, done)
			}
			if len(emitted) != prefix {
				t.Fatalf("emitted points %v, want the first %d", emitted, prefix)
			}
			t.Logf("deadline after %d of %d evaluations: %d of %d points emitted", done, fullStats.Evaluated, prefix, len(qs))
		})
	}
}
