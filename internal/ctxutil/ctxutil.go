// Package ctxutil is the shared cancellation plumbing of the context-aware
// v2 engine API. Search kernels (the branch-and-bound FMCS refiner, the
// R-tree self-joins, the exact query evaluations) are hot loops that
// cannot afford a context poll per node; Poll amortizes the check to one
// ctx.Err() read every stride work units, so the cost of cancellation
// support on an uncanceled run is a counter decrement. CanceledError is the
// typed error every engine returns when a context stops a computation,
// carrying the partial work statistics accumulated up to the stop.
package ctxutil

import (
	"context"
	"errors"
	"fmt"
)

// DefaultStride is the number of charged work units between consecutive
// context polls. One unit is one search node / one streamed join pair, so
// the stride bounds how much extra work a canceled computation performs
// before it notices: at most one stride per Poll.
const DefaultStride = 1024

// CanceledError reports a computation stopped by its context. It wraps the
// context's error (context.Canceled or context.DeadlineExceeded), so
// errors.Is(err, context.Canceled) works through it, and carries the
// partial work counters so callers can account for abandoned effort.
type CanceledError struct {
	// Err is the underlying context error.
	Err error
	// SubsetsExamined counts the contingency-set verifications performed
	// before the stop (explanation and repair paths).
	SubsetsExamined int64
	// Evaluated counts the exact query evaluations completed before the
	// stop (query paths).
	Evaluated int
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("crsky: computation canceled: %v (subsets examined: %d, evaluated: %d)",
		e.Err, e.SubsetsExamined, e.Evaluated)
}

// Unwrap exposes the context error to errors.Is/errors.As.
func (e *CanceledError) Unwrap() error { return e.Err }

// WrapCanceled types a context error as a *CanceledError carrying the
// partial work counters. Non-context errors — and errors a lower layer
// already typed, whose counters must not be overwritten — pass through
// unchanged; nil stays nil. Every cancellation return in the engine
// funnels through this helper, so callers can rely on one error shape.
func WrapCanceled(err error, subsets int64, evaluated int) error {
	if err == nil {
		return nil
	}
	var ce *CanceledError
	if errors.As(err, &ce) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return &CanceledError{Err: err, SubsetsExamined: subsets, Evaluated: evaluated}
	}
	return err
}

// Precheck returns the wrapped cancellation error of an already-dead
// context, so entry points fail fast before any work; nil and
// never-canceling contexts return nil.
func Precheck(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return WrapCanceled(ctx.Err(), 0, 0)
}

// Poll is an amortized context checker. A nil *Poll never cancels, so
// context-free entry points pass nil and pay a single branch per check.
// Poll is not safe for concurrent use: each goroutine owns its own Poll
// (sharing the context), which keeps the countdown contention-free.
type Poll struct {
	ctx    context.Context
	stride int64
	left   int64
}

// NewPoll builds a Poll over ctx with the given stride (<= 0 selects
// DefaultStride). It returns nil — the never-canceling poll — when ctx is
// nil or can never be canceled (context.Background, context.TODO), so the
// hot loops skip even the countdown on the legacy context-free paths.
func NewPoll(ctx context.Context, stride int) *Poll {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	if stride <= 0 {
		stride = DefaultStride
	}
	// left starts at 1, not stride: the very first charge polls, so an
	// already-dead context is observed before any work happens; only then
	// does the amortization kick in.
	return &Poll{ctx: ctx, stride: int64(stride), left: 1}
}

// Charge consumes n work units and polls the context once the stride is
// exhausted, returning the context's error if it has been canceled. The
// poll never returns a stale nil after a cancellation has been observed:
// once ctx.Err() is non-nil it stays non-nil.
func (p *Poll) Charge(n int64) error {
	if p == nil {
		return nil
	}
	p.left -= n
	if p.left > 0 {
		return nil
	}
	p.left = p.stride
	return p.ctx.Err()
}

// Check is Charge(1).
func (p *Poll) Check() error { return p.Charge(1) }
