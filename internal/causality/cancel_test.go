package causality

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/crsky/crsky/internal/ctxutil"
	"github.com/crsky/crsky/internal/dataset"
	"github.com/crsky/crsky/internal/geom"
	"github.com/crsky/crsky/internal/prob"
)

// countdownCtx is a deterministic cancellation source: Err() returns
// context.Canceled after the n-th call. Combined with the amortized poll it
// cancels the search at an exact, reproducible point mid-run — no timing,
// no sleeps.
type countdownCtx struct {
	context.Context
	n atomic.Int64
}

func newCountdownCtx(after int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.n.Store(after)
	return c
}

// Done returns a non-nil channel so ctxutil.NewPoll treats the context as
// cancelable (context.Background().Done() is nil).
func (c *countdownCtx) Done() <-chan struct{} { return make(chan struct{}) }

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// cancelWorkload builds an instance whose refinement performs well over one
// poll stride of work, so a countdown context reliably cancels mid-search.
// The minimum-repair seed makes most non-answers of this generator cheap
// at α = 0.6; at α = 0.5 with 24 objects the first qualifying search still
// examines about 23 000 subsets.
func cancelWorkload(t *testing.T) (*dataset.Uncertain, geom.Point, float64, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	cfg := dataset.LUrU(24, 2, 0, 3000, rng.Int63())
	cfg.Samples = 2
	cfg.Domain = 1000
	ds, err := dataset.GenerateUncertain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Point{400, 400}
	const alpha = 0.5
	for an := 0; an < ds.Len(); an++ {
		if prob.GEq(prob.PrReverseSkyline(ds.Objects[an], q, ds.Objects), alpha) {
			continue
		}
		// The deepest countdown in the tests cancels after ~6 poll strides,
		// so the search must charge well beyond that many work units.
		res, err := CP(ds, q, an, alpha, Options{})
		if err == nil && res.SubsetsExamined > 10*ctxutil.DefaultStride && len(res.Causes) > 0 {
			return ds, q, alpha, an
		}
	}
	t.Fatal("no workload with a substantial search found; regenerate the seed")
	return nil, nil, 0, 0
}

// TestExplainCtxCanceledPromptly asserts the cancellation contract of
// CPCtx: a context dying mid-search surfaces as a *ctxutil.CanceledError
// that unwraps to context.Canceled, carries partial statistics, and stops
// within one poll stride of additional work.
func TestExplainCtxCanceledPromptly(t *testing.T) {
	ds, q, alpha, an := cancelWorkload(t)

	// Pre-canceled context: no work at all.
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CPCtx(dead, ds, q, an, alpha, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled CPCtx returned %v, want context.Canceled", err)
	}

	// Countdown cancellation at several depths: typed error, partial
	// stats, and stride-bounded overshoot.
	full, err := CP(ds, q, an, alpha, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, after := range []int64{1, 2, 5} {
		ctx := newCountdownCtx(after)
		_, err := CPCtx(ctx, ds, q, an, alpha, Options{})
		if err == nil {
			t.Fatalf("after=%d: CPCtx survived a canceled context (search only needs %d subsets)",
				after, full.SubsetsExamined)
		}
		var ce *ctxutil.CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("after=%d: error %T (%v) is not a *ctxutil.CanceledError", after, err, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("after=%d: %v does not unwrap to context.Canceled", after, err)
		}
		// The poll fires every stride work units and Err() goes non-nil at
		// the (after+1)-th poll, so the search performs at most
		// (after+1)×stride units — SubsetsExamined (leaves only) is a lower
		// bound of work units, so it must stay below that ceiling.
		if max := (after + 1) * ctxutil.DefaultStride; ce.SubsetsExamined > max {
			t.Fatalf("after=%d: %d subsets examined after cancellation, stride bound is %d",
				after, ce.SubsetsExamined, max)
		}
	}
}

// TestExplainCtxLeavesEngineReusable asserts a canceled run leaves no
// residue: the next uncanceled call returns a result bit-identical to a
// run on a fresh evaluator — causes, responsibilities, contingency sets,
// and the (deterministic, serial) SubsetsExamined counter.
func TestExplainCtxLeavesEngineReusable(t *testing.T) {
	ds, q, alpha, an := cancelWorkload(t)
	want, err := CP(ds, q, an, alpha, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, after := range []int64{1, 3} {
		if _, err := CPCtx(newCountdownCtx(after), ds, q, an, alpha, Options{}); err == nil {
			t.Fatalf("after=%d: expected cancellation", after)
		}
		got, err := CPCtx(context.Background(), ds, q, an, alpha, Options{})
		if err != nil {
			t.Fatalf("after=%d: run following a canceled one failed: %v", after, err)
		}
		if !reflect.DeepEqual(got.Causes, want.Causes) {
			t.Fatalf("after=%d: causes diverged after a canceled run:\n got %v\nwant %v", after, got.Causes, want.Causes)
		}
		if got.SubsetsExamined != want.SubsetsExamined {
			t.Fatalf("after=%d: SubsetsExamined %d after a canceled run, want %d",
				after, got.SubsetsExamined, want.SubsetsExamined)
		}
	}
}

// TestExplainCtxCancelParallel cancels mid-search under Parallel=4 from a
// live goroutine — the race-detector companion of the deterministic tests:
// workers must drain cleanly and the engine must stay reusable. Run with
// -race (CI does).
func TestExplainCtxCancelParallel(t *testing.T) {
	ds, q, alpha, an := cancelWorkload(t)
	want, err := CP(ds, q, an, alpha, Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Duration(i%4) * 50 * time.Microsecond)
			cancel()
		}()
		res, err := CPCtx(ctx, ds, q, an, alpha, Options{Parallel: 4})
		switch {
		case err == nil:
			// The search may legitimately win the race; the result must be
			// the real one.
			if fmt.Sprint(res.Causes) != fmt.Sprint(want.Causes) {
				t.Fatalf("iteration %d: racy run returned wrong causes", i)
			}
		case errors.Is(err, context.Canceled):
			// Expected; engine must stay reusable.
		default:
			t.Fatalf("iteration %d: unexpected error %v", i, err)
		}
		cancel()
	}
	got, err := CP(ds, q, an, alpha, Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Causes) != fmt.Sprint(want.Causes) {
		t.Fatal("engine not reusable after parallel cancellations")
	}
}

// TestRepairCtxCanceled asserts MinimalRepairCtx honors cancellation in
// both phases (greedy and exact) and stays reusable.
func TestRepairCtxCanceled(t *testing.T) {
	ds, q, alpha, an := cancelWorkload(t)
	want, err := MinimalRepair(ds, q, an, alpha, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MinimalRepairCtx(dead, ds, q, an, alpha, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled repair returned %v", err)
	}
	for _, after := range []int64{1, 2} {
		_, err := MinimalRepairCtx(newCountdownCtx(after), ds, q, an, alpha, Options{})
		if err == nil {
			continue // small instances may finish under the countdown
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("after=%d: %v does not unwrap to context.Canceled", after, err)
		}
	}
	got, err := MinimalRepair(ds, q, an, alpha, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("repair diverged after cancellations: got %+v want %+v", got, want)
	}
}

// TestNaiveICtxCanceled pins the oracle's cancellation path.
func TestNaiveICtxCanceled(t *testing.T) {
	ds, q, alpha, an := cancelWorkload(t)
	_, err := NaiveICtx(newCountdownCtx(0), ds, q, an, alpha, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("NaiveICtx returned %v, want context.Canceled", err)
	}
}
