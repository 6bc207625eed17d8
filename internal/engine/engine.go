// Package engine is the shared evaluation service behind every consumer
// of "design point → objective value" in the repository: the brute-force
// sweep (dse.SweepCtx), the APS flow (aps.RunCtx), the analytic optimizer
// (core.OptimizeCtx) and the CLIs. One Engine owns
//
//   - the worker pool (a global concurrency bound shared by every batch
//     submitted to the engine, so two concurrent sweeps cannot
//     oversubscribe the machine),
//   - an LRU memoization cache keyed on a precomputed 64-bit hash of the
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
	"time"

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
// Engine carries one, every EvaluateStream point acquires a gate slot
// before it takes a pool worker, so an external scheduler — the server's
// per-tenant fair-share queue, for example — decides whose point runs
// next instead of the channel's arrival order. The gate sees the
// submission's context, which is where schedulers carry their identity
// (e.g. the requesting tenant).
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
	// Gate, when non-nil, schedules EvaluateStream points: each point
	// acquires a gate slot (in addition to the engine's own worker
	// semaphore) before evaluating, so an external policy — fair-share
	// across tenants, priority classes — owns the dispatch order of the
	// shared pool. Single-point Evaluate/Do calls bypass the gate; they
	// are bounded by the caller's own admission control. On the batched
	// path the gate arbitrates chunks rather than points.
	Gate Gate
}

// DefaultCacheSize is the memoization capacity when Options.CacheSize is
// zero. An entry costs ~130 bytes (hash, identity point copy, value,
// list links), so the default stays well under 100 MB even when full.
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

	tracer *obs.Tracer
	obs    instruments
}

// instruments are the engine's pre-resolved observability handles. They
// mirror the private counters one-for-one at the exact same increment
// sites, so for an engine that owns its registry a metrics snapshot and
// Stats agree bit-for-bit. The two sets are kept apart because a
// registry may be shared: the façade's per-call private engines all
// count into one WithMetrics registry, whose engine_*_total counters are
// then the sum across engines while each Stats stays per engine. Every
// field is a valid no-op when nil (disabled registry).
type instruments struct {
	requests    *obs.Counter
	evaluations *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	dedups      *obs.Counter
	panics      *obs.Counter
	retries     *obs.Counter
	failures    *obs.Counter
	evictions   *obs.Counter
	inflight    *obs.Gauge
	evalSeconds *obs.Histogram
}

// newInstruments resolves the engine's instruments from r (all nil for a
// nil registry).
func newInstruments(r *obs.Registry) instruments {
	return instruments{
		requests:    r.Counter("engine_requests_total"),
		evaluations: r.Counter("engine_evaluations_total"),
		cacheHits:   r.Counter("engine_cache_hits_total"),
		cacheMisses: r.Counter("engine_cache_misses_total"),
		dedups:      r.Counter("engine_dedups_total"),
		panics:      r.Counter("engine_panics_total"),
		retries:     r.Counter("engine_retries_total"),
		failures:    r.Counter("engine_failures_total"),
		evictions:   r.Counter("engine_evictions_total"),
		inflight:    r.Gauge("engine_inflight"),
		evalSeconds: r.Histogram("engine_eval_seconds", obs.LatencyBuckets()),
	}
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
		obs:      newInstruments(opts.Metrics),
	}
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

// Do is Evaluate with the full Outcome (attempt count, cache/shared
// provenance).
func (e *Engine) Do(ctx context.Context, ev robust.Evaluator, point []float64) Outcome {
	e.counters.requests.Add(1)
	e.obs.requests.Add(1)
	fp := ""
	cacheable := false
	if e.cache != nil {
		if f, ok := ev.(Fingerprinter); ok {
			fp = f.Fingerprint()
			cacheable = true
		}
	}
	if !cacheable {
		return e.compute(ctx, ev, point)
	}
	return e.doKeyed(ctx, ev, point, hashPoint(hashFP(fp), point), fp)
}

// doKeyed is the cacheable half of Do: the caller has already derived
// the 64-bit key hash (cheap, zero-alloc) and still holds the exact
// fingerprint for identity checks.
func (e *Engine) doKeyed(ctx context.Context, ev robust.Evaluator, point []float64, hash uint64, fp string) Outcome {
	for {
		e.mu.Lock()
		fpID := e.internLocked(fp)
		if v, ok := e.cache.get(hash, fpID, point); ok {
			e.mu.Unlock()
			e.counters.cacheHits.Add(1)
			e.obs.cacheHits.Add(1)
			return Outcome{Value: v, CacheHit: true}
		}
		if c, ok := e.inflight[hash]; ok {
			if c.fpID != fpID || !pointsEqual(c.point, point) {
				// 64-bit hash collision with a different in-flight key:
				// compute solo, skipping dedup and the memo insert (the
				// colliding owner keeps the table slot; exactness first).
				e.mu.Unlock()
				e.counters.cacheMisses.Add(1)
				e.obs.cacheMisses.Add(1)
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
			e.obs.dedups.Add(1)
			return Outcome{Value: c.out.Value, Shared: true, Err: c.out.Err}
		}
		c := &call{fpID: fpID, point: point, done: make(chan struct{})}
		e.inflight[hash] = c
		e.mu.Unlock()

		e.counters.cacheMisses.Add(1)
		e.obs.cacheMisses.Add(1)
		out := e.compute(ctx, ev, point)
		c.out = out
		e.mu.Lock()
		if out.Err == nil {
			if e.cache.add(hash, c.fpID, point, out.Value) {
				e.counters.evictions.Add(1)
				e.obs.evictions.Add(1)
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

// compute wraps computeInner in the engine.eval span and the inflight
// gauge; the wrapper costs two branches when observability is off.
func (e *Engine) compute(ctx context.Context, ev robust.Evaluator, point []float64) Outcome {
	ctx, sp := e.tracer.Start(ctx, "engine.eval")
	e.obs.inflight.Add(1)
	out := e.computeInner(ctx, ev, point)
	e.obs.inflight.Add(-1)
	if sp != nil {
		sp.Annotate(obs.I("attempts", int64(out.Attempts)))
		if out.Err != nil {
			sp.Annotate(obs.S("error", out.Err.Error()))
		}
		sp.Finish()
	}
	return out
}

// computeInner runs the guarded, retried evaluation and meters it.
func (e *Engine) computeInner(ctx context.Context, ev robust.Evaluator, point []float64) Outcome {
	guarded := robust.Guard(ev)
	var v float64
	start := time.Now() //lint:allow detguard wall-clock pair feeds the latency counters/histogram only, never the evaluated value
	attempts, err := e.retry.Do(ctx, e.rng, func(ctx context.Context) error {
		e.counters.evaluations.Add(1)
		e.obs.evaluations.Add(1)
		var err2 error
		v, err2 = guarded.EvaluateCtx(ctx, point)
		var pe *robust.PanicError
		if errors.As(err2, &pe) {
			e.counters.panics.Add(1)
			e.obs.panics.Add(1)
		}
		return err2
	})
	elapsed := time.Since(start) //lint:allow detguard elapsed feeds the latency counters/histogram only, never the evaluated value
	e.counters.wallNanos.Add(uint64(elapsed))
	e.obs.evalSeconds.Observe(elapsed.Seconds())
	if attempts > 1 {
		e.counters.retries.Add(uint64(attempts - 1))
		e.obs.retries.Add(uint64(attempts - 1))
	}
	if err != nil {
		if !isContextErr(err) {
			e.counters.failures.Add(1)
			e.obs.failures.Add(1)
		}
		return Outcome{Value: math.NaN(), Attempts: attempts, Err: err}
	}
	return Outcome{Value: v, Attempts: attempts}
}

// EvaluateStream evaluates every point on the engine's worker pool and
// invokes yield(i, outcome) from a single goroutine (no locking needed in
// yield) as results complete, in completion order. Points never started
// because ctx was cancelled produce no yield call. EvaluateStream returns
// ctx.Err() after all in-flight evaluations have finished — no worker
// goroutine outlives the call.
func (e *Engine) EvaluateStream(ctx context.Context, ev robust.Evaluator, points [][]float64, yield func(i int, o Outcome)) error {
	n := len(points)
	if n == 0 {
		return ctx.Err()
	}
	if be, ok := ev.(BatchEvaluator); ok {
		return e.streamBatched(ctx, ev, be, points, yield)
	}
	workers := e.workers
	if workers > n {
		workers = n
	}
	type res struct {
		i int
		o Outcome
	}
	work := make(chan int)
	results := make(chan res, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				// The external gate (when present) decides whose point runs
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
				// Acquire a global slot so concurrent batches on one
				// engine share the same concurrency bound.
				select {
				case e.sem <- struct{}{}:
				case <-ctx.Done():
					if release != nil {
						release()
					}
					return
				}
				o := e.Do(ctx, ev, points[i])
				<-e.sem
				if release != nil {
					release()
				}
				results <- res{i: i, o: o}
			}
		}()
	}
	go func() {
		defer close(work)
		for i := range points {
			select {
			case work <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()
	for r := range results {
		if yield != nil {
			yield(r.i, r.o)
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
