// Package robust provides the resilience primitives behind the
// long-running exploration pipeline (the §IV design-space sweep and the
// APS flow): bounded retry with exponential backoff and jitter, wall-clock
// budget tracking, a panic-isolating evaluator wrapper, a seeded
// fault-injection harness used to test all of the above, and the one
// crash-safe file replace (WriteFileAtomic) behind every checkpoint, job
// record and cache snapshot. The package is generic — it knows nothing
// about the design space or the simulator — so every layer of the
// pipeline (dse, aps, engine, server) can share one policy vocabulary.
package robust

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
)

// Evaluator is a context-aware, fallible design-point evaluator: the
// resilient counterpart of dse.Evaluator. Implementations must be safe
// for concurrent use. A returned error marks a fault (retryable unless it
// wraps the context's error); an infeasible-but-valid configuration
// should instead return +Inf with a nil error so it is scored, not
// retried.
type Evaluator interface {
	EvaluateCtx(ctx context.Context, point []float64) (float64, error)
}

// EvaluatorFunc adapts a function to the Evaluator interface.
type EvaluatorFunc func(ctx context.Context, point []float64) (float64, error)

// EvaluateCtx implements Evaluator.
func (f EvaluatorFunc) EvaluateCtx(ctx context.Context, point []float64) (float64, error) {
	return f(ctx, point)
}

// PanicError is a recovered evaluator panic, preserved with its stack so
// sweep reports can attribute crashes to individual design points.
type PanicError struct {
	Value interface{}
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("robust: evaluator panicked: %v", e.Value)
}

// Guard wraps an evaluator so that panics during evaluation are isolated
// into a returned *PanicError instead of tearing down the whole sweep.
func Guard(e Evaluator) Evaluator {
	return EvaluatorFunc(func(ctx context.Context, point []float64) (v float64, err error) {
		defer func() {
			if r := recover(); r != nil {
				v = math.NaN()
				err = &PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		return e.EvaluateCtx(ctx, point)
	})
}

// RNG is a splitmix64 generator, safe for concurrent use. It backs the
// jittered backoff delays and the fault-injection draws, keeping both
// deterministic for a fixed seed (up to goroutine scheduling).
type RNG struct {
	mu    sync.Mutex
	state uint64
}

// NewRNG seeds a generator; a zero seed selects a fixed nonzero constant.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next raw value.
func (r *RNG) Uint64() uint64 {
	r.mu.Lock()
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	r.mu.Unlock()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}
