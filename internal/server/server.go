// Package server exposes the repository's evaluation stack — the
// memoizing engine, the resilient DSE sweep and the APS flow — as a
// zero-dependency (net/http-only) JSON service. One Server fronts one
// shared engine.Engine, so every client's requests meet in the same
// fingerprint-keyed memo cache: C²-Bound what-if queries are cheap per
// point but arrive in large correlated batches, exactly the shape
// request coalescing and memoization exploit.
//
// Endpoints (DESIGN.md §10 carries the full table):
//
//	POST   /v1/evaluate               one design point, JSON in/out
//	POST   /v1/evaluate:batch         many points, NDJSON results in submission order
//	POST   /v1/sweep                  server-side dse.SweepCtx, NDJSON progress frames
//	POST   /v1/aps                    APS by family (runAPS), JSON result
//	GET    /v1/catalog                applications and model families with parameter domains
//	POST   /v1/jobs                   submit a durable sweep or APS job
//	GET    /v1/jobs                   the tenant's jobs
//	GET    /v1/jobs/{id}              one job, with live progress
//	GET    /v1/jobs/{id}/result       a succeeded job's result
//	POST   /v1/jobs/{id}/cancel       cancel a job
//	DELETE /v1/jobs/{id}              remove a finished job
//	POST   /internal/v1/peer-eval     points forwarded by a cluster peer
//	POST   /internal/v1/peer-sweep    a sub-sweep forwarded by a cluster peer
//	GET    /healthz                   liveness (process up)
//	GET    /readyz                    readiness + engine/server statistics
//	GET    /metrics                   obs.Registry text exposition
//
// The /v1/jobs routes exist only with Options.JobDir, the peer routes
// only in a cluster. Every sweep and APS request, synchronous or a job,
// resolves through one resolver per kind (work.go).
//
// The load path has production semantics: a weighted deficit-round-robin
// admission gate with bounded per-tenant wait queues sheds overload as
// 429 + Retry-After, every request runs under a deadline derived from
// the ?timeout_ms cap, handlers are panic-isolated and report failures
// as typed JSON error envelopes with stable codes, and Shutdown drains
// in-flight work (cancelling stragglers so sweeps flush their
// checkpoints) while /readyz reports 503.
//
// Multi-tenancy (DESIGN.md §11): a tenant table maps API keys to named
// tenants with fair-share weights, concurrency quotas and token-bucket
// rate limits. Admission and the engine worker pool are both arbitrated
// per tenant, so a flooding tenant grows only its own queue; with no
// table configured the server runs in open single-tenant mode and the
// whole layer is inert. The /v1/jobs resource (jobs.go) runs sweeps and
// APS asynchronously with disk-backed state and checkpoint resume.
package server

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
)

// Default knobs of Options; exported so the CLI help and the docs quote
// one source of truth.
const (
	// DefaultMaxQueueFactor sizes the admission wait queue as a multiple
	// of the concurrency bound when Options.MaxQueue is zero.
	DefaultMaxQueueFactor = 4
	// DefaultTimeout bounds a request that names no ?timeout_ms.
	DefaultTimeout = 30 * time.Second
	// DefaultMaxTimeout caps the ?timeout_ms a client may request.
	DefaultMaxTimeout = 5 * time.Minute
	// DefaultRetryAfter is the 429 Retry-After hint.
	DefaultRetryAfter = 1 * time.Second
	// DefaultMaxBatchPoints bounds the points of one batch request.
	DefaultMaxBatchPoints = 1 << 17
)

// Options configures a new Server.
type Options struct {
	// Engine is the shared evaluation service behind every endpoint. Nil
	// builds one from Workers and CacheSize.
	Engine *engine.Engine
	// Workers bounds engine parallelism when Engine is nil (≤0:
	// GOMAXPROCS).
	Workers int
	// CacheSize is the private engine's memo capacity when Engine is nil
	// (0: engine default).
	CacheSize int

	// MaxConcurrent bounds concurrently admitted work requests (≤0: the
	// engine's worker count). Status endpoints bypass admission.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an admission slot (≤0:
	// DefaultMaxQueueFactor × MaxConcurrent). Beyond it the server sheds
	// with 429 + Retry-After.
	MaxQueue int
	// RetryAfter is the hint shed responses carry (≤0: DefaultRetryAfter).
	RetryAfter time.Duration

	// Timeout is the per-request evaluation deadline when the client
	// names none (≤0: DefaultTimeout).
	Timeout time.Duration
	// MaxTimeout caps the client's ?timeout_ms (≤0: DefaultMaxTimeout).
	MaxTimeout time.Duration

	// MaxBatchPoints bounds one batch request's point count (≤0:
	// DefaultMaxBatchPoints).
	MaxBatchPoints int

	// CheckpointDir enables sweep checkpoint/resume: requests name a
	// checkpoint file (sanitized, no path separators) inside this
	// directory; named tenants write under a per-tenant subdirectory and
	// the job subsystem under the reserved "jobs" subdirectory. Empty
	// rejects checkpointed requests.
	CheckpointDir string

	// Tenants is the initial tenant table (see TenantConfig). Empty runs
	// the server in open single-tenant mode; SetTenants swaps the table
	// at runtime (the CLI wires it to SIGHUP).
	Tenants []TenantConfig

	// JobDir enables the /v1/jobs subsystem: one JSON record per job is
	// persisted here (atomic rename + fsync), and jobs found in "running"
	// state at startup are adopted and resumed from their checkpoints.
	// Empty disables the endpoints (404).
	JobDir string

	// Catalog is the named model registry (nil: DefaultCatalog).
	Catalog *Catalog

	// Cluster joins this server to a peer tier (internal/cluster): each
	// (fingerprint, point) key is routed to its ring owner, remote-owned
	// points travel over POST /internal/v1/peer-eval, sweeps are
	// partitioned by ownership, and any peer failure falls back to local
	// compute. Nil runs the server standalone (the endpoints 404). Pass
	// the same obs.Registry to both so /metrics shows the cluster_*
	// instruments.
	Cluster *cluster.Cluster

	// Tracer records server.* and engine.* spans (nil: tracing off).
	Tracer *obs.Tracer
	// Metrics receives the server_* instruments and backs /metrics (nil:
	// a private registry, so /metrics always works).
	Metrics *obs.Registry
}

// Stats is a snapshot of the server's own counters, reported by /readyz
// beside the engine snapshot.
type Stats struct {
	// Requests counts every HTTP request received, status endpoints
	// included.
	Requests uint64 `json:"requests"`
	// Admitted counts work requests that passed admission control.
	Admitted uint64 `json:"admitted"`
	// Shed counts work requests rejected with 429.
	Shed uint64 `json:"shed"`
	// Errors counts requests answered with an error envelope.
	Errors uint64 `json:"errors"`
	// Panics counts handler panics isolated by the recovery middleware.
	Panics uint64 `json:"panics"`
	// InFlight is the number of admitted requests currently executing.
	InFlight int `json:"in_flight"`
	// Queued is the number of requests waiting for an admission slot.
	Queued int64 `json:"queued"`
	// Draining reports that Shutdown has begun and /readyz answers 503.
	Draining bool `json:"draining"`
}

// Server is the evaluation service. Build it with New; it implements
// http.Handler and is safe for concurrent use.
type Server struct {
	opts    Options
	eng     *engine.Engine
	cluster *cluster.Cluster
	catalog *Catalog
	tracer  *obs.Tracer
	metrics *obs.Registry
	adm     *fairShare
	gate    *fairShare
	tenants *tenants
	jobs    *jobManager
	mux     *http.ServeMux

	ckMu    sync.Mutex
	ckInUse map[string]bool

	requests atomic.Uint64
	admitted atomic.Uint64
	shed     atomic.Uint64
	errors   atomic.Uint64
	panics   atomic.Uint64

	obsRequests *obs.Counter
	obsAdmitted *obs.Counter
	obsShed     *obs.Counter
	obsErrors   *obs.Counter
	obsPanics   *obs.Counter
	obsInflight *obs.Gauge
	obsSeconds  *obs.Histogram

	draining atomic.Bool
	inflight sync.WaitGroup

	mu      sync.Mutex
	cancels map[uint64]context.CancelFunc
	nextID  uint64
}

// New builds a Server, its engine (when not shared) and its routes.
// Invalid Options.Tenants panic (construction-time programmer error);
// use SetTenants for checked runtime swaps.
func New(opts Options) *Server {
	eng := opts.Engine
	metrics := opts.Metrics
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	ts := newTenants(metrics)
	var gate *fairShare
	if eng == nil {
		// The point-level fair-share gate arbitrates the private engine's
		// worker pool per tenant; its capacity is set once the engine has
		// resolved its worker count. A caller-supplied engine keeps its own
		// scheduling (it may be shared beyond this server).
		gate = newFairShare(1, false, 0, 0)
		eng = engine.New(engine.Options{
			Workers:   opts.Workers,
			CacheSize: opts.CacheSize,
			Tracer:    opts.Tracer,
			Metrics:   metrics,
			Gate:      &engineGate{fs: gate, ts: ts},
		})
		gate.setCapacity(eng.Workers())
	}
	maxConc := opts.MaxConcurrent
	if maxConc <= 0 {
		maxConc = eng.Workers()
	}
	maxQueue := opts.MaxQueue
	if maxQueue <= 0 {
		maxQueue = DefaultMaxQueueFactor * maxConc
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = DefaultRetryAfter
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.MaxTimeout <= 0 {
		opts.MaxTimeout = DefaultMaxTimeout
	}
	if opts.MaxBatchPoints <= 0 {
		opts.MaxBatchPoints = DefaultMaxBatchPoints
	}
	catalog := opts.Catalog
	if catalog == nil {
		catalog = DefaultCatalog()
	}
	s := &Server{
		opts:    opts,
		eng:     eng,
		cluster: opts.Cluster,
		catalog: catalog,
		tracer:  opts.Tracer,
		metrics: metrics,
		adm:     newFairShare(maxConc, true, maxQueue, maxQueue),
		gate:    gate,
		tenants: ts,
		mux:     http.NewServeMux(),
		cancels: make(map[uint64]context.CancelFunc),
		ckInUse: make(map[string]bool),

		obsRequests: metrics.Counter("server_requests_total"),
		obsAdmitted: metrics.Counter("server_admitted_total"),
		obsShed:     metrics.Counter("server_shed_total"),
		obsErrors:   metrics.Counter("server_errors_total"),
		obsPanics:   metrics.Counter("server_panics_total"),
		obsInflight: metrics.Gauge("server_inflight"),
		obsSeconds:  metrics.Histogram("server_request_seconds", obs.LatencyBuckets()),
	}
	if len(opts.Tenants) > 0 {
		if err := ts.set(opts.Tenants); err != nil {
			//lint:allow errwrap construction-time misconfiguration; SetTenants is the checked path
			panic(err)
		}
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/catalog", s.handleCatalog)
	s.mux.Handle("POST /v1/evaluate", s.work("server.evaluate", s.handleEvaluate))
	s.mux.Handle("POST /v1/evaluate:batch", s.work("server.batch", s.handleBatch))
	s.mux.Handle("POST /v1/sweep", s.work("server.sweep", s.handleSweep))
	s.mux.Handle("POST /v1/aps", s.work("server.aps", s.handleAPS))
	if s.cluster != nil {
		s.mux.Handle("POST /internal/v1/peer-eval", s.peerWork("server.peer_eval", s.handlePeerEval))
		s.mux.Handle("POST /internal/v1/peer-sweep", s.peerWork("server.peer_sweep", s.handlePeerSweep))
	}
	if opts.JobDir != "" {
		s.jobs = newJobManager(s, opts.JobDir)
		s.mux.Handle("POST /v1/jobs", s.control("server.jobs.submit", s.handleJobSubmit))
		s.mux.Handle("GET /v1/jobs", s.control("server.jobs.list", s.handleJobList))
		s.mux.Handle("GET /v1/jobs/{id}", s.control("server.jobs.get", s.handleJobGet))
		s.mux.Handle("GET /v1/jobs/{id}/result", s.control("server.jobs.result", s.handleJobResult))
		s.mux.Handle("POST /v1/jobs/{id}/cancel", s.control("server.jobs.cancel", s.handleJobCancel))
		s.mux.Handle("DELETE /v1/jobs/{id}", s.control("server.jobs.delete", s.handleJobDelete))
		s.jobs.adoptOrphans()
	}
	return s
}

// SetTenants atomically replaces the tenant table (the CLI wires this to
// SIGHUP). Existing tenants keep their live state — token-bucket level,
// queue positions, metrics — matched by name; an empty slice returns the
// server to open single-tenant mode. On error the current table is
// untouched.
func (s *Server) SetTenants(configs []TenantConfig) error {
	return s.tenants.set(configs)
}

// TenantNames lists the configured tenant names, sorted.
func (s *Server) TenantNames() []string { return s.tenants.namesSnapshot() }

// Engine returns the server's evaluation engine (shared or private).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Metrics returns the registry backing /metrics.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests: s.requests.Load(),
		Admitted: s.admitted.Load(),
		Shed:     s.shed.Load(),
		Errors:   s.errors.Load(),
		Panics:   s.panics.Load(),
		InFlight: s.adm.inUseCount(),
		Queued:   int64(s.adm.waitingCount()),
		Draining: s.draining.Load(),
	}
}

// Ready reports whether the server accepts work (false once Shutdown has
// begun).
func (s *Server) Ready() bool { return !s.draining.Load() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.obsRequests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// StartDrain flips the server into draining mode: /readyz answers 503
// and new work requests are rejected, while in-flight work continues.
// Idempotent; Shutdown calls it first.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Shutdown gracefully stops the work plane: it drains in-flight
// requests, and when ctx expires first it cancels them — a cancelled
// sweep writes its final checkpoint on the way out — and still waits for
// the handlers to unwind. The HTTP listener itself belongs to the
// caller (http.Server.Shutdown); call StartDrain (or this) before
// closing the listener so load balancers see /readyz flip first.
// Returns ctx.Err() when the drain had to be forced.
func (s *Server) Shutdown(ctx context.Context) error {
	s.StartDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelInflight()
		<-done
		return ctx.Err()
	}
}

// cancelInflight cancels every admitted request's context.
func (s *Server) cancelInflight() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, cancel := range s.cancels {
		cancel()
	}
}

// registerCancel tracks an in-flight request's cancel for forced drains.
func (s *Server) registerCancel(cancel context.CancelFunc) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := s.nextID
	s.cancels[id] = cancel
	return id
}

// unregisterCancel forgets a finished request.
func (s *Server) unregisterCancel(id uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.cancels, id)
}

// engineGate adapts the engine-pool fairShare to engine.Gate: every
// EvaluateStream point acquires a WDRR slot under the tenant carried by
// the evaluation context, so a flooding tenant's batch cannot occupy the
// whole worker pool while another tenant's points wait.
type engineGate struct {
	fs *fairShare
	ts *tenants
}

// AcquireSlot implements engine.Gate.
func (g *engineGate) AcquireSlot(ctx context.Context) (func(), error) {
	t := tenantFrom(ctx)
	if t == nil {
		t = g.ts.anonymous()
	}
	release, err := g.fs.acquire(ctx, t)
	if err != nil {
		return nil, err
	}
	t.obsEvals.Add(1)
	return release, nil
}

// work wraps an evaluation handler with the full load-path middleware:
// drain rejection, tenant resolution, the token-bucket rate limit,
// fair-share admission, the per-request deadline, observability
// propagation, a request span, and panic isolation.
func (s *Server) work(span string, h func(http.ResponseWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			s.errors.Add(1)
			s.obsErrors.Add(1)
			writeErrorBody(w, http.StatusServiceUnavailable,
				ErrorBody{Code: CodeUnavailable, Message: "server is draining"})
			return
		}
		t, err := s.tenants.lookup(r)
		if err != nil {
			s.errors.Add(1)
			s.obsErrors.Add(1)
			writeError(w, err)
			return
		}
		t.obsRequests.Add(1)
		if ok, wait := t.allow(time.Now()); !ok {
			s.shedTenant(w, t, retryAfterSeconds(wait),
				ErrorBody{Code: CodeRateLimited, Message: "tenant rate limit exceeded; retry later"})
			return
		}
		queued := time.Now()
		release, err := s.adm.acquire(r.Context(), t)
		t.obsQueueSec.Observe(time.Since(queued).Seconds())
		if err != nil {
			if err == errSaturated {
				s.shedTenant(w, t, retryAfterSeconds(s.opts.RetryAfter),
					ErrorBody{Code: CodeOverloaded, Message: "admission queue full; retry later"})
				return
			}
			s.errors.Add(1)
			s.obsErrors.Add(1)
			writeError(w, err)
			return
		}
		defer release()
		s.admitted.Add(1)
		s.obsAdmitted.Add(1)
		s.inflight.Add(1)
		defer s.inflight.Done()
		s.obsInflight.Add(1)
		defer s.obsInflight.Add(-1)

		timeout, err := s.requestTimeout(r)
		if err != nil {
			s.errors.Add(1)
			s.obsErrors.Add(1)
			writeErrorBody(w, http.StatusBadRequest, ErrorBody{Code: CodeBadRequest, Message: err.Error()})
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		id := s.registerCancel(cancel)
		defer s.unregisterCancel(id)
		ctx = contextWithTenant(ctx, t)
		ctx = obs.ContextWithTracer(ctx, s.tracer)
		ctx = obs.ContextWithMetrics(ctx, s.metrics)
		ctx, sp := s.tracer.Start(ctx, span)
		start := time.Now()
		defer func() {
			s.obsSeconds.Observe(time.Since(start).Seconds())
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				s.obsPanics.Add(1)
				s.errors.Add(1)
				s.obsErrors.Add(1)
				if sp != nil {
					sp.Annotate(obs.S("panic", "true"))
					sp.Finish()
				}
				// Best effort: if the handler already streamed a body the
				// envelope write fails silently, which is all HTTP offers.
				writeErrorBody(w, http.StatusInternalServerError,
					ErrorBody{Code: CodeInternal, Message: "internal server error"})
				return
			}
			sp.Finish()
		}()
		h(w, r.WithContext(ctx))
	})
}

// shedTenant renders one 429, charging both the global and the tenant's
// shed counters.
func (s *Server) shedTenant(w http.ResponseWriter, t *tenantState, retryAfter int, body ErrorBody) {
	s.errors.Add(1)
	s.obsErrors.Add(1)
	s.shed.Add(1)
	s.obsShed.Add(1)
	t.obsShed.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	writeErrorBody(w, http.StatusTooManyRequests, body)
}

// control wraps a /v1/jobs control-plane handler: tenant resolution, a
// request span and panic isolation — but no admission slot and no
// deadline beyond the client's, because submit/poll/cancel are cheap
// and must answer even while the work plane is saturated. Only submit
// consumes from the tenant's token bucket (it enqueues work; polling
// must stay free or clients would burn their budget watching jobs).
func (s *Server) control(span string, h func(http.ResponseWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t, err := s.tenants.lookup(r)
		if err != nil {
			s.errors.Add(1)
			s.obsErrors.Add(1)
			writeError(w, err)
			return
		}
		t.obsRequests.Add(1)
		ctx := contextWithTenant(r.Context(), t)
		ctx = obs.ContextWithTracer(ctx, s.tracer)
		ctx = obs.ContextWithMetrics(ctx, s.metrics)
		ctx, sp := s.tracer.Start(ctx, span)
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				s.obsPanics.Add(1)
				s.errors.Add(1)
				s.obsErrors.Add(1)
				if sp != nil {
					sp.Annotate(obs.S("panic", "true"))
					sp.Finish()
				}
				writeErrorBody(w, http.StatusInternalServerError,
					ErrorBody{Code: CodeInternal, Message: "internal server error"})
				return
			}
			sp.Finish()
		}()
		h(w, r.WithContext(ctx))
	})
}

// requestTimeout derives the request deadline from ?timeout_ms, clamped
// to MaxTimeout; absent or zero selects the server default.
func (s *Server) requestTimeout(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("timeout_ms")
	if raw == "" {
		return s.opts.Timeout, nil
	}
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms < 0 {
		return 0, validationf("server: timeout_ms %q is not a non-negative integer", raw)
	}
	if ms == 0 {
		return s.opts.Timeout, nil
	}
	d := time.Duration(ms) * time.Millisecond
	if d > s.opts.MaxTimeout {
		d = s.opts.MaxTimeout
	}
	return d, nil
}

// checkpointName validates a client-supplied checkpoint name and maps it
// into CheckpointDir. Only a single path element of word characters is
// accepted, so requests cannot escape the configured directory.
var checkpointNameRx = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// checkpointJobsNamespace is the CheckpointDir subdirectory reserved for
// /v1/jobs checkpoints (files named by job ID); no tenant may claim it.
const checkpointJobsNamespace = "jobs"

// checkpointPath maps a client-supplied checkpoint name into
// CheckpointDir, namespaced by the context's tenant: the anonymous
// (single-tenant) identity keeps the flat legacy layout, named tenants
// write under CheckpointDir/<tenant>/ so equal names never collide
// across tenants.
func (s *Server) checkpointPath(ctx context.Context, name string) (string, error) {
	if name == "" {
		return "", nil
	}
	if s.opts.CheckpointDir == "" {
		return "", validationf("server: checkpointing disabled (no checkpoint directory configured)")
	}
	if !checkpointNameRx.MatchString(name) || name != filepath.Base(name) {
		return "", validationf("server: invalid checkpoint name %q", name)
	}
	t := tenantFrom(ctx)
	if t == nil || t.name == AnonymousTenant {
		return filepath.Join(s.opts.CheckpointDir, name), nil
	}
	dir := filepath.Join(s.opts.CheckpointDir, t.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("server: creating tenant checkpoint directory: %w", err)
	}
	return filepath.Join(dir, name), nil
}

// lockCheckpoint claims exclusive use of a checkpoint path for one
// running request. Two concurrent sweeps naming the same checkpoint used
// to interleave writes and clobber each other's files; now the second
// request is answered 409 conflict and the client retries after the
// first finishes (resuming its checkpoint, even). Empty paths need no
// lock.
func (s *Server) lockCheckpoint(path string) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	if s.ckInUse[path] {
		return nil, conflictf("server: checkpoint %q is in use by another request", filepath.Base(path))
	}
	s.ckInUse[path] = true
	return func() {
		s.ckMu.Lock()
		delete(s.ckInUse, path)
		s.ckMu.Unlock()
	}, nil
}
