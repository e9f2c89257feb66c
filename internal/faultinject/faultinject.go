// Package faultinject is a deterministic, seed-driven fault injector for
// chaos-testing the serving stack: delayed worker-pool slots, injected
// engine errors, and injected engine panics, all drawn from one seeded
// generator so a failing run replays exactly. The package has no effect on
// production binaries — the server only consults an injector when one is
// installed in its Config, which only tests do.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"math/rand"

	crsky "github.com/crsky/crsky"
)

// ErrInjected marks every injected engine failure. The server maps it to a
// 500 (infrastructure fault, not a client error); chaos tests use it to
// separate injected failures from real ones.
var ErrInjected = errors.New("faultinject: injected failure")

// Config sets the fault probabilities. All zero disables every fault, so
// the zero-value injector is a deterministic no-op.
type Config struct {
	// Seed drives the fault schedule; identical configs replay identical
	// schedules.
	Seed int64
	// SlotDelayP is the probability a worker-pool slot stalls after
	// acquisition, for a uniform duration in (0, SlotDelayMax].
	SlotDelayP   float64
	SlotDelayMax time.Duration
	// ErrP is the probability an engine operation fails with ErrInjected
	// before doing any work.
	ErrP float64
	// PanicP is the probability an engine operation panics before doing
	// any work (exercising the recovery middleware and slot cleanup).
	PanicP float64
}

// Counts reports how many faults of each kind actually fired.
type Counts struct {
	SlotDelays int64 `json:"slotDelays"`
	Errors     int64 `json:"errors"`
	Panics     int64 `json:"panics"`
}

// Injector draws faults from a seeded generator. All methods are safe for
// concurrent use; the draw order under concurrency is scheduling-dependent,
// but the fault RATE and determinism-per-draw-sequence are what the chaos
// tests rely on.
type Injector struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand

	slotDelays atomic.Int64
	errs       atomic.Int64
	panics     atomic.Int64
}

// New builds an injector from cfg.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

func (in *Injector) draw() float64 {
	in.mu.Lock()
	v := in.rng.Float64()
	in.mu.Unlock()
	return v
}

// SlotDelay returns how long the current pool slot should stall before
// running its computation (0 = no fault). The server's worker pool calls it
// after slot acquisition.
func (in *Injector) SlotDelay() time.Duration {
	if in == nil || in.cfg.SlotDelayP <= 0 || in.cfg.SlotDelayMax <= 0 {
		return 0
	}
	if in.draw() >= in.cfg.SlotDelayP {
		return 0
	}
	in.mu.Lock()
	d := time.Duration(in.rng.Int63n(int64(in.cfg.SlotDelayMax))) + 1
	in.mu.Unlock()
	in.slotDelays.Add(1)
	return d
}

// Err returns an injected failure for the named engine operation, or nil.
func (in *Injector) Err(op string) error {
	if in == nil || in.cfg.ErrP <= 0 {
		return nil
	}
	if in.draw() >= in.cfg.ErrP {
		return nil
	}
	in.errs.Add(1)
	return fmt.Errorf("%w: %s", ErrInjected, op)
}

// MaybePanic panics for the named engine operation with probability
// PanicP — the fault the recovery middleware must contain.
func (in *Injector) MaybePanic(op string) {
	if in == nil || in.cfg.PanicP <= 0 {
		return
	}
	if in.draw() >= in.cfg.PanicP {
		return
	}
	in.panics.Add(1)
	panic(fmt.Sprintf("faultinject: injected panic in %s", op))
}

// Counts snapshots the fired-fault counters.
func (in *Injector) Counts() Counts {
	return Counts{
		SlotDelays: in.slotDelays.Load(),
		Errors:     in.errs.Load(),
		Panics:     in.panics.Load(),
	}
}

// Wrap decorates an engine so every compute operation may fail or panic
// per the injector's schedule before reaching the real engine. The
// decorated engine is what a chaos-test server registers; all pass-through
// behavior (warming, counters, result values) is unchanged when no fault
// fires.
func Wrap(eng crsky.Explainer, in *Injector) crsky.Explainer {
	return &faultyEngine{inner: eng, in: in}
}

type faultyEngine struct {
	inner crsky.Explainer
	in    *Injector
}

func (f *faultyEngine) Len() int            { return f.inner.Len() }
func (f *faultyEngine) Dims() int           { return f.inner.Dims() }
func (f *faultyEngine) Warm()               { f.inner.Warm() }
func (f *faultyEngine) NodeAccesses() int64 { return f.inner.NodeAccesses() }
func (f *faultyEngine) ResetCounters()      { f.inner.ResetCounters() }

func (f *faultyEngine) QueryCtx(ctx context.Context, q crsky.Point, alpha float64, opts crsky.QueryOptions) ([]int, crsky.QueryStats, error) {
	if err := f.in.Err("query"); err != nil {
		return nil, crsky.QueryStats{}, err
	}
	f.in.MaybePanic("query")
	return f.inner.QueryCtx(ctx, q, alpha, opts)
}

func (f *faultyEngine) QueryBatchStream(ctx context.Context, qs []crsky.Point, alpha float64, opts crsky.QueryOptions,
	emit func(index int, ids []int)) ([][]int, crsky.QueryStats, error) {

	// Failing before the first emit exercises the server's whole-batch
	// error path; mid-stream faults are the engine's own cancellation
	// behavior and stay un-injected so chaos runs keep the emitted-prefix
	// invariant observable.
	if err := f.in.Err("queryBatchStream"); err != nil {
		return nil, crsky.QueryStats{}, err
	}
	f.in.MaybePanic("queryBatchStream")
	return f.inner.QueryBatchStream(ctx, qs, alpha, opts, emit)
}

func (f *faultyEngine) QueryApprox(ctx context.Context, q crsky.Point, alpha float64, opts crsky.QueryOptions, approx crsky.ApproxOptions) (*crsky.ApproxResult, crsky.QueryStats, error) {
	if err := f.in.Err("queryApprox"); err != nil {
		return nil, crsky.QueryStats{}, err
	}
	f.in.MaybePanic("queryApprox")
	return f.inner.QueryApprox(ctx, q, alpha, opts, approx)
}

func (f *faultyEngine) ExplainCtx(ctx context.Context, id int, q crsky.Point, alpha float64, opts crsky.Options) (*crsky.Explanation, error) {
	if err := f.in.Err("explain"); err != nil {
		return nil, err
	}
	f.in.MaybePanic("explain")
	return f.inner.ExplainCtx(ctx, id, q, alpha, opts)
}

func (f *faultyEngine) ExplainBatchStream(ctx context.Context, reqs []crsky.ExplainRequest, opts crsky.Options,
	emit func(crsky.ExplainItem)) []crsky.ExplainItem {

	// Per-item faults arrive through ExplainCtx on single-item batches; a
	// whole-batch fault here would discard sibling results, which the v2
	// contract forbids even under chaos, so the batch surface only panics.
	f.in.MaybePanic("explainBatchStream")
	return f.inner.ExplainBatchStream(ctx, reqs, opts, emit)
}

func (f *faultyEngine) RepairCtx(ctx context.Context, id int, q crsky.Point, alpha float64, opts crsky.Options) (*crsky.Repair, error) {
	if err := f.in.Err("repair"); err != nil {
		return nil, err
	}
	f.in.MaybePanic("repair")
	return f.inner.RepairCtx(ctx, id, q, alpha, opts)
}

func (f *faultyEngine) VerifyCtx(ctx context.Context, q crsky.Point, alpha float64, res *crsky.Explanation) error {
	if err := f.in.Err("verify"); err != nil {
		return err
	}
	f.in.MaybePanic("verify")
	return f.inner.VerifyCtx(ctx, q, alpha, res)
}

// WithInsert implements crsky.Mutable: the insert may fail or panic before
// reaching the real engine, and a successful successor engine is wrapped
// with the same injector so faults persist across generations.
func (f *faultyEngine) WithInsert(spec crsky.InsertSpec) (crsky.Explainer, int, error) {
	m, ok := f.inner.(crsky.Mutable)
	if !ok {
		return nil, 0, crsky.ErrUnsupported
	}
	if err := f.in.Err("insert"); err != nil {
		return nil, 0, err
	}
	f.in.MaybePanic("insert")
	ne, id, err := m.WithInsert(spec)
	if err != nil {
		return nil, 0, err
	}
	return Wrap(ne, f.in), id, nil
}

// WithDelete implements crsky.Mutable; see WithInsert.
func (f *faultyEngine) WithDelete(id int) (crsky.Explainer, error) {
	m, ok := f.inner.(crsky.Mutable)
	if !ok {
		return nil, crsky.ErrUnsupported
	}
	if err := f.in.Err("delete"); err != nil {
		return nil, err
	}
	f.in.MaybePanic("delete")
	ne, err := m.WithDelete(id)
	if err != nil {
		return nil, err
	}
	return Wrap(ne, f.in), nil
}
