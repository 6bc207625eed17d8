package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"repro/internal/obs"
	"repro/internal/robust"
)

// BatchEvaluator is the batched form of robust.Evaluator: one call
// evaluates a whole plane of points, writing out[i] for points[i].
// Implementations must treat infeasible points as values (+Inf), return
// an error only for faults that invalidate the whole batch, and must be
// bit-identical to their scalar EvaluateCtx — the batchpar analyzer
// enforces that every implementation also carries the scalar method, and
// the differential tests in dse enforce the bit-identity.
//
// EvaluateStream detects this interface and dispatches cache-friendly
// chunks instead of single points, the single biggest win on the
// evaluation hot path (see DESIGN.md §12).
type BatchEvaluator interface {
	EvaluateBatch(ctx context.Context, points [][]float64, out []float64) error
}

// BatchFunc is Func with a batched kernel: the way ad-hoc fingerprinted
// objectives (the APS grid scan, the optimizer's probes) join the
// batched path. The embedded Func keeps the scalar contract.
type BatchFunc struct {
	Func
	// B evaluates all points, writing out[i] for points[i]. It must
	// compute exactly what F computes.
	B func(ctx context.Context, points [][]float64, out []float64) error
}

// EvaluateBatch implements BatchEvaluator.
func (f BatchFunc) EvaluateBatch(ctx context.Context, points [][]float64, out []float64) error {
	return f.B(ctx, points, out)
}

// EvaluateBatch runs every point through the engine pipeline — memo
// cache, in-flight dedup, panic guard, retry, gate — writing out[i] for
// points[i]. Values follow the usual convention (+Inf feasible penalty,
// NaN on error); the returned error is ctx.Err() after cancellation or
// the first per-point fault otherwise.
func (e *Engine) EvaluateBatch(ctx context.Context, ev robust.Evaluator, points [][]float64, out []float64) error {
	if len(out) != len(points) {
		return fmt.Errorf("engine: EvaluateBatch out length %d != points length %d", len(out), len(points))
	}
	var firstErr error
	err := e.EvaluateStream(ctx, ev, points, func(i int, o Outcome) {
		out[i] = o.Value
		if o.Err != nil && firstErr == nil {
			firstErr = o.Err
		}
	})
	if err != nil {
		return err
	}
	return firstErr
}

// chunkSize picks the batched dispatch granularity: enough chunks to
// load-balance the pool (~4 per worker), chunks big enough to amortize
// the per-chunk lock and gate traffic, and capped so one chunk's memo
// probes stay cache-resident.
func chunkSize(n, workers int) int {
	c := (n + 4*workers - 1) / (4 * workers)
	if c < 16 {
		c = 16
	}
	if c > 512 {
		c = 512
	}
	if c > n {
		c = n
	}
	return c
}

// doChunk evaluates one chunk of a batched stream: classify every point
// (memo hit, owned miss, in-flight elsewhere) under a single lock
// acquisition, evaluate all misses with one computeChunk call, publish
// the results, then resolve the points another computation owned
// through doPoint.
func (e *Engine) doChunk(ctx context.Context, ev robust.Evaluator, be BatchEvaluator, pts [][]float64, key memoKey) []Outcome {
	outs := make([]Outcome, len(pts))
	if !key.ok {
		e.counters.requests.Add(uint64(len(pts)))
		vals := make([]float64, len(pts))
		attempts, err := e.computeChunk(ctx, be, pts, vals)
		for i := range pts {
			outs[i] = chunkOutcome(vals[i], attempts, err)
		}
		return outs
	}

	hashes := make([]uint64, len(pts))
	for i, p := range pts {
		hashes[i] = hashPoint(key.seed, p)
	}
	var (
		// callSlab backs every in-flight registration of this chunk and
		// done is their shared completion signal (the whole chunk
		// publishes at once), so registration costs no per-point
		// allocation. Both are made on the first registration.
		callSlab   []call
		done       chan struct{}
		miss       []int // chunk indices this call evaluates
		missPts    [][]float64
		missHashes []uint64
		calls      []*call // parallel to miss; nil for solo hash collisions
		collided   []bool  // non-nil when any calls entry is nil
		deferred   []int   // chunk indices owned by another in-flight call
		hits       uint64
	)
	// addMiss records chunk index i as evaluated by this call. The miss
	// slices are sized for the rest of the chunk on the first miss, so a
	// cold chunk never regrows them and a warm one allocates none.
	addMiss := func(i int, c *call) {
		if miss == nil {
			rest := len(pts) - i
			miss, missPts = make([]int, 0, rest), make([][]float64, 0, rest)
			missHashes, calls = make([]uint64, 0, rest), make([]*call, 0, rest)
		}
		miss = append(miss, i)
		missPts = append(missPts, pts[i])
		missHashes = append(missHashes, hashes[i])
		calls = append(calls, c)
	}
	e.mu.Lock()
	fpID := e.internLocked(key.fp)
	e.cache.prefetch(hashes)
	for i, p := range pts {
		if v, ok := e.cache.get(hashes[i], fpID, p); ok {
			outs[i] = Outcome{Value: v, CacheHit: true}
			hits++
			continue
		}
		if c, ok := e.inflight[hashes[i]]; ok {
			if c.fpID == fpID && pointsEqual(c.point, p) {
				deferred = append(deferred, i)
				continue
			}
			// Hash collision with a different in-flight key: evaluate in
			// this batch but stay out of the memo and dedup tables.
			addMiss(i, nil)
			if collided == nil {
				collided = make([]bool, len(pts))
			}
			collided[len(calls)-1] = true
			continue
		}
		if callSlab == nil {
			callSlab, done = make([]call, len(pts)), make(chan struct{})
		}
		c := &callSlab[i]
		*c = call{fpID: fpID, point: p, done: done}
		e.inflight[hashes[i]] = c
		addMiss(i, c)
	}
	e.mu.Unlock()

	// Deferred points are counted when they re-enter through doPoint.
	e.counters.requests.Add(uint64(len(pts) - len(deferred)))
	if hits > 0 {
		e.counters.cacheHits.Add(hits)
	}
	if len(miss) > 0 {
		e.counters.cacheMisses.Add(uint64(len(miss)))
		vals := make([]float64, len(miss))
		attempts, err := e.computeChunk(ctx, be, missPts, vals)
		evicted := uint64(0)
		e.mu.Lock()
		registered := 0
		for k, i := range miss {
			outs[i] = chunkOutcome(vals[k], attempts, err)
			if c := calls[k]; c != nil {
				c.out = outs[i]
				registered++
			}
		}
		// Our registrations are all still present (only this call removes
		// them), so a size match means the in-flight table holds nothing
		// else and the chunk's registrations can be released in bulk — the
		// common single-stream case, where per-key deletes would be the
		// costliest map traffic of the publish path.
		if registered == len(e.inflight) {
			clear(e.inflight)
		} else {
			for k := range miss {
				if calls[k] != nil {
					delete(e.inflight, missHashes[k])
				}
			}
		}
		if err == nil {
			evicted = e.cache.addBatch(missHashes, fpID, missPts, vals, collided)
		}
		e.mu.Unlock()
		if done != nil {
			close(done)
		}
		if evicted > 0 {
			e.counters.evictions.Add(evicted)
		}
	}
	// Resolved last: a duplicate point within this very chunk waits on a
	// call the loop above has already closed, so this cannot deadlock.
	for _, i := range deferred {
		outs[i] = e.doPoint(ctx, ev, pts[i], key)
	}
	return outs
}

// chunkOutcome maps one point's share of a batch computation to the
// scalar Outcome contract (NaN value on error).
func chunkOutcome(val float64, attempts int, err error) Outcome {
	if err != nil {
		return Outcome{Value: math.NaN(), Attempts: attempts, Err: err}
	}
	return Outcome{Value: val, Attempts: attempts}
}

// computeChunk is the engine's one evaluator call that is guarded,
// retried, timed and traced: a batch chunk's misses, or a single point
// through pointBatch. Evaluations count per point per attempt; the
// eval-seconds histogram takes one sample per evaluation (the amortized
// per-point latency), so its count equals the evaluations counter;
// retries count per extra attempt, failures per point of a call that
// failed for a reason other than cancellation.
func (e *Engine) computeChunk(ctx context.Context, be BatchEvaluator, pts [][]float64, vals []float64) (attempts int, err error) {
	ctx, sp := e.tracer.Start(ctx, "engine.eval")
	e.counters.inflight.Add(1)
	start := time.Now() //lint:allow detguard wall-clock pair feeds the latency counters/histogram only, never the evaluated values
	attempts, err = e.retry.Do(ctx, e.rng, func(ctx context.Context) error {
		e.counters.evaluations.Add(uint64(len(pts)))
		err2 := guardedBatch(ctx, be, pts, vals)
		var pe *robust.PanicError
		if errors.As(err2, &pe) {
			e.counters.panics.Add(1)
		}
		return err2
	})
	elapsed := time.Since(start) //lint:allow detguard elapsed feeds the latency counters/histogram only, never the evaluated values
	e.counters.wallNanos.Add(uint64(elapsed))
	if evals := uint64(len(pts)) * uint64(attempts); evals > 0 {
		e.counters.evalSeconds.ObserveN(elapsed.Seconds()/float64(evals), evals)
	}
	if attempts > 1 {
		e.counters.retries.Add(uint64(attempts - 1))
	}
	if err != nil && !isContextErr(err) {
		e.counters.failures.Add(uint64(len(pts)))
	}
	e.counters.inflight.Add(-1)
	if sp != nil {
		sp.Annotate(obs.I("points", int64(len(pts))))
		sp.Annotate(obs.I("attempts", int64(attempts)))
		if err != nil {
			sp.Annotate(obs.S("error", err.Error()))
		}
		sp.Finish()
	}
	return attempts, err
}

// guardedBatch isolates panics: a panicking evaluator becomes a
// *robust.PanicError instead of tearing down the stream.
func guardedBatch(ctx context.Context, be BatchEvaluator, pts [][]float64, vals []float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &robust.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return be.EvaluateBatch(ctx, pts, vals)
}
