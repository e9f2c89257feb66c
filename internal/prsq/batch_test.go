package prsq

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/crsky/crsky/internal/causality"
	"github.com/crsky/crsky/internal/ctxutil"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prob"
	"github.com/crsky/crsky/internal/stats"
	"github.com/crsky/crsky/internal/uncertain"
)

// TestQueryBatchMatchesPerQuery asserts element-wise identity between the
// batch query and the brute-force prob.PRSQ of every point across
// thresholds and worker counts, and — the batch layer's reason to exist —
// strictly fewer total node accesses than the same points run as batches
// of one.
func TestQueryBatchMatchesPerQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := dataset.LUrU(1500, 3, 0, 5, 11)
	ds, err := dataset.GenerateUncertain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var io stats.Counter
	ds.Tree().SetCounter(&io)
	ds.WeightSums()
	ds.Summaries()

	qs := make([]geom.Point, 16)
	for i := range qs {
		qs[i] = geom.Point{
			cfg.Domain * rng.Float64(),
			cfg.Domain * rng.Float64(),
			cfg.Domain * rng.Float64(),
		}
	}
	for _, alpha := range []float64{0.3, 0.9} {
		want := make([][]int, len(qs))
		for i, q := range qs {
			want[i] = prob.PRSQ(ds.Objects, q, alpha)
		}
		for _, par := range []int{1, 4} {
			opt := Options{Parallel: par}

			io.Reset()
			for _, q := range qs {
				queryStats(t, ds, q, alpha, opt)
			}
			singleIO := io.Value()

			io.Reset()
			got, st, err := QueryBatchStreamStatsCtx(context.Background(), ds, qs, alpha, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			batchIO := io.Value()

			for i := range qs {
				if !equalIDs(got[i], want[i]) {
					t.Fatalf("alpha=%g par=%d q#%d: batch %v, brute force %v", alpha, par, i, got[i], want[i])
				}
			}
			decided := st.EmptyCandidates + st.AcceptedByBound + st.RejectedByBound +
				st.AcceptedByTier2 + st.RejectedByTier2 + st.Evaluated
			if decided != ds.Len()*len(qs) {
				t.Fatalf("alpha=%g par=%d: stats decide %d of %d object-queries (%+v)",
					alpha, par, decided, ds.Len()*len(qs), st)
			}
			if batchIO >= singleIO {
				t.Fatalf("alpha=%g par=%d: batch charged %d node accesses, batches of one %d — no amortization",
					alpha, par, batchIO, singleIO)
			}
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
	var io stats.Counter
	set.Tree().SetCounter(&io)

	qs := make([]geom.Point, 8)
	for i := range qs {
		qs[i] = geom.Point{cfg.Domain * rng.Float64(), cfg.Domain * rng.Float64()}
	}
	const quad = 4
	for _, alpha := range []float64{0.4, 0.9} {
		opt := Options{Parallel: 2}
		io.Reset()
		for _, q := range qs {
			queryPDFStats(t, set, q, alpha, quad, opt)
		}
		singleIO := io.Value()

		io.Reset()
		got, _, err := QueryBatchPDFStreamStatsCtx(context.Background(), set, qs, alpha, quad, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		batchIO := io.Value()

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
	out, _, err := QueryBatchStreamStatsCtx(ctx, ds, qs, 0.5, Options{Parallel: 1}, nil)
	if err == nil || out != nil {
		t.Fatalf("canceled batch returned out=%v err=%v", out, err)
	}
}

// TestQueryBatchStageBudget pins StageBudget on batches: a 64-point batch
// at n=20k, whose join alone runs for seconds, must stop the join at its
// half of the deadline and return the join cancellation while the request
// deadline is still live — leaving the caller the other half for a
// fallback.
func TestQueryBatchStageBudget(t *testing.T) {
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
	const deadline = 500 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, _, err = QueryBatchStreamStatsCtx(ctx, ds, qs, 0.5, Options{StageBudget: true}, nil)
	elapsed := time.Since(start)
	var ce *ctxutil.CanceledError
	if !errors.As(err, &ce) || !errors.Is(err, context.DeadlineExceeded) || ce.Evaluated != 0 {
		t.Fatalf("err = %v after %v, want a join-stage deadline cancellation", err, elapsed)
	}
	if ctx.Err() != nil {
		t.Fatalf("join returned after %v, past the %v request deadline instead of at its half", elapsed, deadline)
	}
	t.Logf("join canceled after %v of a %v deadline", elapsed, deadline)
}
