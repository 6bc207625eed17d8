package engine

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// counter is one engine event count: the engine's own atomic, which
// Stats reads, paired with its mirror in the optional metrics registry.
// The two stay apart because a registry may be shared — the façade's
// per-call private engines all count into one WithMetrics registry,
// whose engine_*_total counters are then the sum across engines while
// each Stats stays per engine — but every event is a single Add. A nil
// mirror (no registry) is a no-op.
type counter struct {
	n      atomic.Uint64
	mirror *obs.Counter
}

// Add counts d events on the engine and in its registry.
func (c *counter) Add(d uint64) {
	c.n.Add(d)
	c.mirror.Add(d)
}

// counters are the engine's live event counts plus the registry
// instruments that have no Stats twin. Everything is resolved once in
// New, so the evaluation hot path never performs a registry lookup.
type counters struct {
	requests    counter
	evaluations counter
	cacheHits   counter
	cacheMisses counter
	dedups      counter
	panics      counter
	retries     counter
	failures    counter
	evictions   counter
	wallNanos   atomic.Uint64
	inflight    *obs.Gauge
	evalSeconds *obs.Histogram
}

// mirror resolves the registry instruments (engine_*_total,
// engine_inflight, engine_eval_seconds); a nil registry leaves them all
// nil.
func (c *counters) mirror(r *obs.Registry) {
	c.requests.mirror = r.Counter("engine_requests_total")
	c.evaluations.mirror = r.Counter("engine_evaluations_total")
	c.cacheHits.mirror = r.Counter("engine_cache_hits_total")
	c.cacheMisses.mirror = r.Counter("engine_cache_misses_total")
	c.dedups.mirror = r.Counter("engine_dedups_total")
	c.panics.mirror = r.Counter("engine_panics_total")
	c.retries.mirror = r.Counter("engine_retries_total")
	c.failures.mirror = r.Counter("engine_failures_total")
	c.evictions.mirror = r.Counter("engine_evictions_total")
	c.inflight = r.Gauge("engine_inflight")
	c.evalSeconds = r.Histogram("engine_eval_seconds", obs.LatencyBuckets())
}

// Stats is a consistent-enough snapshot of the engine's counters (each
// field is read atomically; the set is not a single atomic transaction,
// which is fine for monitoring).
type Stats struct {
	// Requests is the number of evaluation requests received.
	Requests uint64 `json:"requests"`
	// Evaluations is the number of raw evaluator invocations, counting
	// every retry attempt — the "simulations spent" figure.
	Evaluations uint64 `json:"evaluations"`
	// CacheHits and CacheMisses account memoization lookups (fingerprinted
	// evaluators only).
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// Dedups counts requests served by waiting on a concurrent in-flight
	// computation of the same key.
	Dedups uint64 `json:"dedups"`
	// Panics is the number of evaluator panics isolated by the guard.
	Panics uint64 `json:"panics"`
	// Retries is the number of re-attempts after transient failures.
	Retries uint64 `json:"retries"`
	// Failures counts requests whose final outcome was an error (context
	// cancellations excluded).
	Failures uint64 `json:"failures"`
	// Evictions counts cache entries displaced by the CLOCK policy.
	Evictions uint64 `json:"evictions"`
	// CacheEntries is the live number of memoized values.
	CacheEntries int `json:"cache_entries"`
	// WallTime is the cumulative wall-clock time spent inside evaluators
	// (summed across workers, so it exceeds elapsed time under
	// parallelism).
	WallTime time.Duration `json:"wall_time_ns"`
}

// Snapshot bundles the engine's static shape with its live counters —
// the /readyz payload of internal/server serializes it and
// cmd/clusterbench reads it back, so the JSON field names are part of
// the tool contract and covered by tests.
type Snapshot struct {
	// Workers is the engine's concurrency bound.
	Workers int `json:"workers"`
	// CacheCapacity is the memo cache bound (0: caching disabled).
	CacheCapacity int `json:"cache_capacity"`
	// Stats is the live counter snapshot.
	Stats Stats `json:"stats"`
}

// Snapshot returns the engine's shape and counters in one value.
func (e *Engine) Snapshot() Snapshot {
	return Snapshot{
		Workers:       e.Workers(),
		CacheCapacity: e.CacheCap(),
		Stats:         e.Stats(),
	}
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Requests:     e.counters.requests.n.Load(),
		Evaluations:  e.counters.evaluations.n.Load(),
		CacheHits:    e.counters.cacheHits.n.Load(),
		CacheMisses:  e.counters.cacheMisses.n.Load(),
		Dedups:       e.counters.dedups.n.Load(),
		Panics:       e.counters.panics.n.Load(),
		Retries:      e.counters.retries.n.Load(),
		Failures:     e.counters.failures.n.Load(),
		Evictions:    e.counters.evictions.n.Load(),
		CacheEntries: e.CacheLen(),
		WallTime:     time.Duration(e.counters.wallNanos.Load()),
	}
}

// Delta returns the change from an earlier snapshot: s − prev for every
// monotone counter (CacheEntries keeps the later value).
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Requests:     s.Requests - prev.Requests,
		Evaluations:  s.Evaluations - prev.Evaluations,
		CacheHits:    s.CacheHits - prev.CacheHits,
		CacheMisses:  s.CacheMisses - prev.CacheMisses,
		Dedups:       s.Dedups - prev.Dedups,
		Panics:       s.Panics - prev.Panics,
		Retries:      s.Retries - prev.Retries,
		Failures:     s.Failures - prev.Failures,
		Evictions:    s.Evictions - prev.Evictions,
		CacheEntries: s.CacheEntries,
		WallTime:     s.WallTime - prev.WallTime,
	}
}

// HitRate is the fraction of requests served from the cache.
func (s Stats) HitRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.Requests)
}

// String renders the one-line summary the CLIs print on exit.
func (s Stats) String() string {
	return fmt.Sprintf(
		"engine: %d requests, %d evaluations, %d cache hits (%.1f%%), %d dedup, %d retries, %d panics, %d failures, eval wall %v",
		s.Requests, s.Evaluations, s.CacheHits, 100*s.HitRate(),
		s.Dedups, s.Retries, s.Panics, s.Failures, s.WallTime.Round(time.Millisecond))
}
