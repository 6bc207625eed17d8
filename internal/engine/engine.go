// Package engine is the shared evaluation service behind every consumer
// of "design point → objective value" in the repository: the brute-force
// sweep (dse.SweepCtx), the APS flow (aps.RunCtx), the analytic optimizer
// (core.OptimizeCtx) and the CLIs. One Engine owns
//
//   - the worker pool (a global concurrency bound shared by every batch
//     submitted to the engine, so two concurrent sweeps cannot
//     oversubscribe the machine),
//   - a memoization cache (a flat open-addressed table with CLOCK
//     eviction) keyed on a precomputed 64-bit hash of the
//     (evaluator fingerprint, design point) pair — collision-checked
//     against the entry's exact identity, so a hash collision is a miss,
//     never a wrong value — so overlapping
//     explorations — APS re-simulating a neighborhood a ground-truth
//     sweep already covered, the optimizer re-probing a design — pay for
//     each distinct evaluation once,
//   - in-flight deduplication (singleflight): concurrent requests for the
//     same key wait for the first computation instead of repeating it,
//   - the resilience machinery of package robust (panic isolation and
//     retry with exponential backoff), applied uniformly so no caller has
//     to wire it separately,
//   - and counters (requests, raw evaluations, cache hits, panics,
//     retries, failures, evaluator wall time) exposed as a Stats
//     snapshot.
//
// Caching requires a fingerprint: an evaluator that implements
// Fingerprinter (or an engine.Func with an explicit FP) is memoized;
// anonymous evaluators are still guarded, retried and metered, but never
// cached, because two distinct closures of one type would collide.
package engine

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/robust"
)

// Fingerprinter gives an evaluator a canonical identity for memoization.
// Two evaluators must return equal fingerprints only if they compute the
// same function; the fingerprint therefore has to cover every parameter
// the evaluation depends on (configuration, workload, seed, ...).
type Fingerprinter interface {
	Fingerprint() string
}

// Func is a fingerprinted evaluator built from a closure: the way ad-hoc
// objectives (the optimizer's time probe, a figure sweep's scoring rule)
// participate in memoization.
type Func struct {
	// FP is the canonical fingerprint of F.
	FP string
	// F computes the objective at a point.
	F func(ctx context.Context, point []float64) (float64, error)
}

// EvaluateCtx implements robust.Evaluator.
func (f Func) EvaluateCtx(ctx context.Context, point []float64) (float64, error) {
	return f.F(ctx, point)
}

// Fingerprint implements Fingerprinter.
func (f Func) Fingerprint() string { return f.FP }

// Gate arbitrates worker slots among competing submissions. When an
// Engine carries one, every EvaluateStream unit (a point, or a chunk for
// a BatchEvaluator) acquires a gate slot before it takes a pool worker,
// so an external scheduler — the server's per-tenant fair-share queue,
// for example — decides whose unit runs next instead of arrival order.
// The gate sees the submission's context, which is where schedulers
// carry their identity (e.g. the requesting tenant).
//
// AcquireSlot blocks until a slot is granted, returning the release
// closure the caller must invoke after the evaluation, or ctx's error
// when the wait was cancelled. Implementations must be safe for
// concurrent use and must never return (nil, nil).
type Gate interface {
	AcquireSlot(ctx context.Context) (release func(), err error)
}

// Options configures a new Engine.
type Options struct {
	// Workers bounds the number of concurrently running evaluations
	// across all batches submitted to the engine (≤0: GOMAXPROCS).
	Workers int
	// CacheSize is the memoization capacity in entries. Zero selects
	// DefaultCacheSize; a negative value disables caching (and with it
	// in-flight deduplication).
	CacheSize int
	// Retry governs re-attempts of failing or panicking evaluations; the
	// zero value selects robust.DefaultRetry.
	Retry robust.RetryPolicy
	// Seed drives the retry jitter (0: fixed default).
	Seed uint64
	// Tracer records an engine.eval span per raw computation (nil:
	// tracing disabled at a single branch's cost).
	Tracer *obs.Tracer
	// Metrics mirrors the engine's private counters into a shared
	// registry (engine_*_total, engine_inflight, engine_eval_seconds).
	// The instruments are resolved once here at construction, so the
	// evaluation hot path never performs a registry or context lookup.
	// Several engines may share one registry, in which case its counters
	// sum across them while each engine's Stats stays its own. Nil
	// disables the mirror.
	Metrics *obs.Registry
	// Gate, when non-nil, schedules EvaluateStream units: each unit (a
	// point, or a chunk for a BatchEvaluator) acquires a gate slot (in
	// addition to the engine's own worker semaphore) before evaluating,
	// so an external policy — fair-share across tenants, priority
	// classes — owns the dispatch order of the shared pool. Single-point
	// Evaluate/Do calls bypass the gate; they are bounded by the
	// caller's own admission control.
	Gate Gate
}

// DefaultCacheSize is the memoization capacity when Options.CacheSize is
// zero. A full table costs 96 bytes per entry of six coordinates (a
// 32-byte entry, 48 bytes of coordinates and 16 of index), ~25 MB at the
// default; the table grows with occupancy, so an engine that never fills
// it pays less.
const DefaultCacheSize = 1 << 18

// Outcome is the full result of one evaluation request.
type Outcome struct {
	// Value is the objective value (NaN when Err is non-nil).
	Value float64
	// Attempts is the number of evaluator invocations spent on this
	// request (0 when the value came from the cache or a shared
	// in-flight computation).
	Attempts int
	// CacheHit reports that the value was served from the memo cache.
	CacheHit bool
	// Shared reports that the request waited on a concurrent computation
	// of the same key instead of evaluating.
	Shared bool
	// Err is the final error after retries (nil for +Inf "infeasible"
	// results, which are legitimate values).
	Err error
}

// call is one in-flight computation other requests can wait on. It
// carries the exact key identity so a waiter can tell a genuine
// duplicate from a 64-bit hash collision.
type call struct {
	fpID  uint32
	point []float64
	done  chan struct{}
	out   Outcome
}

// Engine is the memoizing, metered evaluation service. Safe for
// concurrent use.
type Engine struct {
	workers int
	retry   robust.RetryPolicy
	rng     *robust.RNG
	sem     chan struct{}
	gate    Gate

	mu       sync.Mutex
	cache    *lruCache // nil when caching is disabled
	inflight map[uint64]*call
	fps      map[string]uint32 // fingerprint → interned ID for exact key checks

	counters counters
	tracer   *obs.Tracer
}

// New builds an engine. The zero Options value gives GOMAXPROCS workers,
// the default cache size and the default retry policy.
func New(opts Options) *Engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		workers:  workers,
		retry:    opts.Retry,
		rng:      robust.NewRNG(opts.Seed),
		sem:      make(chan struct{}, workers),
		gate:     opts.Gate,
		inflight: make(map[uint64]*call),
		fps:      make(map[string]uint32),
		tracer:   opts.Tracer,
	}
	e.counters.mirror(opts.Metrics)
	if opts.CacheSize >= 0 {
		size := opts.CacheSize
		if size == 0 {
			size = DefaultCacheSize
		}
		e.cache = newLRU(size)
	}
	return e
}

// Workers returns the engine's concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// Evaluate runs one evaluation request through the full pipeline —
// cache, in-flight dedup, panic guard, retry — and returns the value and
// final error. Infeasible configurations are values (+Inf, nil error);
// errors mark faults or cancellation.
func (e *Engine) Evaluate(ctx context.Context, ev robust.Evaluator, point []float64) (float64, error) {
	o := e.Do(ctx, ev, point)
	return o.Value, o.Err
}

// memoKey is an evaluator's memo identity, resolved once per request or
// stream: the fingerprint and its hash seed. ok is false when results
// are not cached (caching disabled, or an anonymous evaluator).
type memoKey struct {
	fp   string
	seed uint64
	ok   bool
}

// keyOf resolves ev's memo identity.
func (e *Engine) keyOf(ev robust.Evaluator) memoKey {
	if e.cache != nil {
		if f, ok := ev.(Fingerprinter); ok {
			fp := f.Fingerprint()
			return memoKey{fp: fp, seed: hashFP(fp), ok: true}
		}
	}
	return memoKey{}
}

// Do is Evaluate with the full Outcome (attempt count, cache/shared
// provenance).
func (e *Engine) Do(ctx context.Context, ev robust.Evaluator, point []float64) Outcome {
	return e.doPoint(ctx, ev, point, e.keyOf(ev))
}

// doPoint serves one point request whose memo identity the caller has
// already resolved: a single Do, one unit of a scalar stream, or a chunk
// point another computation owned.
func (e *Engine) doPoint(ctx context.Context, ev robust.Evaluator, point []float64, key memoKey) Outcome {
	e.counters.requests.Add(1)
	if !key.ok {
		return e.compute(ctx, ev, point)
	}
	hash := hashPoint(key.seed, point)
	for {
		e.mu.Lock()
		fpID := e.internLocked(key.fp)
		if v, ok := e.cache.get(hash, fpID, point); ok {
			e.mu.Unlock()
			e.counters.cacheHits.Add(1)
			return Outcome{Value: v, CacheHit: true}
		}
		if c, ok := e.inflight[hash]; ok {
			if c.fpID != fpID || !pointsEqual(c.point, point) {
				// 64-bit hash collision with a different in-flight key:
				// compute solo, skipping dedup and the memo insert (the
				// colliding owner keeps the table slot; exactness first).
				e.mu.Unlock()
				e.counters.cacheMisses.Add(1)
				return e.compute(ctx, ev, point)
			}
			e.mu.Unlock()
			select {
			case <-ctx.Done():
				return Outcome{Value: math.NaN(), Err: ctx.Err()}
			case <-c.done:
			}
			if isContextErr(c.out.Err) {
				// The owner was cancelled, not the computation refuted:
				// compete for the key again.
				continue
			}
			e.counters.dedups.Add(1)
			return Outcome{Value: c.out.Value, Shared: true, Err: c.out.Err}
		}
		c := &call{fpID: fpID, point: point, done: make(chan struct{})}
		e.inflight[hash] = c
		e.mu.Unlock()

		e.counters.cacheMisses.Add(1)
		out := e.compute(ctx, ev, point)
		c.out = out
		e.mu.Lock()
		if out.Err == nil {
			if e.cache.add(hash, c.fpID, point, out.Value) {
				e.counters.evictions.Add(1)
			}
		}
		delete(e.inflight, hash)
		e.mu.Unlock()
		close(c.done)
		return out
	}
}

// internLocked returns the stable ID of a fingerprint, assigning one on
// first sight. Caller holds e.mu.
func (e *Engine) internLocked(fp string) uint32 {
	if id, ok := e.fps[fp]; ok {
		return id
	}
	id := uint32(len(e.fps)) + 1
	e.fps[fp] = id
	return id
}

// compute evaluates one point with the scalar evaluator through
// computeChunk, the engine's one guarded, retried and metered call.
func (e *Engine) compute(ctx context.Context, ev robust.Evaluator, point []float64) Outcome {
	var val [1]float64
	attempts, err := e.computeChunk(ctx, pointBatch{ev}, [][]float64{point}, val[:])
	return chunkOutcome(val[0], attempts, err)
}

// pointBatch presents a scalar evaluator as a batch of one point.
type pointBatch struct{ robust.Evaluator }

// EvaluateBatch implements BatchEvaluator with one EvaluateCtx call.
func (p pointBatch) EvaluateBatch(ctx context.Context, points [][]float64, out []float64) error {
	v, err := p.EvaluateCtx(ctx, points[0])
	out[0] = v
	return err
}

// EvaluateStream evaluates every point on the engine's worker pool and
// invokes yield(i, outcome) from a single goroutine (no locking needed in
// yield) as results complete, in completion order. The pool's unit of
// work is a span of points: a chunk for a BatchEvaluator (see doChunk),
// a single point otherwise. Each unit takes one Gate slot and one worker
// slot, and the evaluator's memo identity is resolved once per stream.
// Units never started — ctx was cancelled, or the Gate refused a slot —
// produce no yield call. EvaluateStream returns ctx.Err() after all
// in-flight evaluations have finished — no goroutine outlives the call.
func (e *Engine) EvaluateStream(ctx context.Context, ev robust.Evaluator, points [][]float64, yield func(i int, o Outcome)) error {
	n := len(points)
	if n == 0 {
		return ctx.Err()
	}
	key := e.keyOf(ev)
	be, batched := ev.(BatchEvaluator)
	span := 1
	if batched {
		span = chunkSize(n, e.workers)
	}
	units := (n + span - 1) / span
	workers := min(e.workers, units)

	// res is one unit's result: outs for a chunk, o for a single point
	// (inline, so a scalar stream allocates nothing per point).
	type res struct {
		lo   int
		o    Outcome
		outs []Outcome
	}
	results := make(chan res, workers)
	var next atomic.Int64 // units are claimed in index order
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u := int(next.Add(1) - 1)
				if u >= units {
					return
				}
				select {
				case <-ctx.Done():
					return
				default:
				}
				// The external gate (when present) decides whose unit runs
				// next; it must be taken before the pool semaphore so a
				// gated waiter never pins a worker slot while it queues.
				var release func()
				if e.gate != nil {
					r, err := e.gate.AcquireSlot(ctx)
					if err != nil {
						return
					}
					release = r
				}
				// Acquire a global slot so concurrent streams on one
				// engine share the same concurrency bound.
				select {
				case e.sem <- struct{}{}:
				case <-ctx.Done():
					if release != nil {
						release()
					}
					return
				}
				r := res{lo: u * span}
				if batched {
					r.outs = e.doChunk(ctx, ev, be, points[r.lo:min(r.lo+span, n)], key)
				} else {
					r.o = e.doPoint(ctx, ev, points[r.lo], key)
				}
				<-e.sem
				if release != nil {
					release()
				}
				results <- r
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	for r := range results {
		switch {
		case yield == nil:
		case batched:
			for j, o := range r.outs {
				yield(r.lo+j, o)
			}
		default:
			yield(r.lo, r.o)
		}
	}
	return ctx.Err()
}

// KeyHash returns the engine's canonical 64-bit memo key for a
// (fingerprint, point) pair: FNV-1a over the fingerprint seeding a
// splitmix64-style fold of the point's IEEE-754 bits — exactly the hash
// the cache, the in-flight table and the batched path use internally.
// The cluster tier places keys on its consistent-hash ring with this
// function, so cache ownership and memo identity can never disagree.
func KeyHash(fp string, point []float64) uint64 {
	return hashPoint(hashFP(fp), point)
}

// CacheLen returns the current number of memoized entries.
func (e *Engine) CacheLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cache == nil {
		return 0
	}
	return e.cache.len()
}

// CacheCap returns the memo cache capacity (0 when caching is disabled).
func (e *Engine) CacheCap() int {
	if e.cache == nil {
		return 0
	}
	return e.cache.capacity
}

// isContextErr reports whether err marks cancellation or a deadline
// rather than an evaluation fault.
func isContextErr(err error) bool {
	return err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}
