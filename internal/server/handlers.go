package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/robust"
)

// maxRequestBody bounds every request body read; the largest legitimate
// payload (a full batch of DefaultMaxBatchPoints six-float points) stays
// well inside it.
const maxRequestBody = 64 << 20

// decodeJSON reads one JSON document from the request into v, rejecting
// trailing garbage and unknown fields so client typos fail loudly.
func decodeJSON(r *http.Request, v interface{}) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return validationf("server: decoding request: %v", err)
	}
	if dec.More() {
		return validationf("server: trailing data after JSON document")
	}
	return nil
}

// writeJSON renders v as the 200 response. An encode failure here means
// the client hung up mid-write; the headers are gone, nothing to repair.
func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// --- status plane ---------------------------------------------------

// handleHealthz is pure liveness: the process answers.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}

// readyzResponse is the /readyz payload: readiness plus the engine and
// server statistics (stable JSON field names, covered by tests).
type readyzResponse struct {
	Ready  bool            `json:"ready"`
	Server Stats           `json:"server"`
	Engine engine.Snapshot `json:"engine"`
	Models []string        `json:"models"`
	// Tenants lists the configured tenant names (the anonymous identity
	// in open single-tenant mode).
	Tenants []string `json:"tenants,omitempty"`
	// Jobs counts known jobs when /v1/jobs is enabled.
	Jobs int `json:"jobs,omitempty"`
	// Cluster summarizes the peer ring when the server is clustered:
	// membership size, alive/ejected counts and open breakers.
	Cluster *cluster.Summary `json:"cluster,omitempty"`
}

// handleReadyz reports readiness: 200 while serving, 503 once draining,
// both with the full statistics payload so operators see the state that
// produced the answer.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	resp := readyzResponse{
		Ready:   s.Ready(),
		Server:  s.Stats(),
		Engine:  s.eng.Snapshot(),
		Models:  s.catalog.Names(),
		Tenants: s.tenants.namesSnapshot(),
	}
	if s.jobs != nil {
		s.jobs.mu.Lock()
		resp.Jobs = len(s.jobs.entries)
		s.jobs.mu.Unlock()
	}
	if s.cluster != nil {
		sum := s.cluster.Summary()
		resp.Cluster = &sum
	}
	w.Header().Set("Content-Type", "application/json")
	if !resp.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(resp)
}

// handleMetrics serves the obs registry's Prometheus-style exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WriteText(w)
}

// --- single evaluation ----------------------------------------------

// EvaluateRequest asks for one design point's objective value.
type EvaluateRequest struct {
	Model     ModelSpec     `json:"model"`
	Evaluator EvaluatorSpec `json:"evaluator,omitzero"`
	// Point is the six-dimensional design point (A0, A1, A2, N, issue,
	// ROB) in paper order.
	Point []float64 `json:"point"`
}

// EvaluateResponse is one scored point. Value is +Inf for infeasible
// configurations (feasible=false), encoded as the string "+Inf".
type EvaluateResponse struct {
	Value    jsonFloat `json:"value"`
	Feasible bool      `json:"feasible"`
	CacheHit bool      `json:"cache_hit"`
	Shared   bool      `json:"shared"`
	Attempts int       `json:"attempts"`
}

// checkPointDims validates a point's dimensionality against the
// resolved family's declared space, naming the expected dimensions in
// the error.
func checkPointDims(fm model.Model, p []float64) error {
	params := fm.Space().Params
	if len(p) == len(params) {
		return nil
	}
	names := make([]string, len(params))
	for i, pr := range params {
		names[i] = pr.Name
	}
	return validationf("server: point has %d dims, want %d (%s)", len(p), len(params), strings.Join(names, ", "))
}

// handleEvaluate scores one point through the shared engine.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req evaluateWire
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	fm, ev, err := s.resolveWork(req.Model, req.Evaluator)
	if err != nil {
		s.fail(w, err)
		return
	}
	if err := checkPointDims(fm, req.Point); err != nil {
		s.fail(w, err)
		return
	}
	// One-point stream rather than Do: the stream path takes the engine's
	// fair-share gate and worker semaphore, so a single-point flood from
	// one tenant cannot crowd the pool any more than a batch can. In a
	// cluster the point may resolve on its ring owner's cache instead.
	var out engine.Outcome
	streamErr := s.streamRouted(r.Context(), ev, req.Model, req.Evaluator, [][]float64{req.Point}, func(_ int, o engine.Outcome) {
		out = o
	})
	if streamErr != nil {
		s.fail(w, streamErr)
		return
	}
	if out.Err != nil {
		s.fail(w, out.Err)
		return
	}
	writeJSON(w, EvaluateResponse{
		Value:    jsonFloat(out.Value),
		Feasible: !math.IsInf(out.Value, 1) && !math.IsNaN(out.Value),
		CacheHit: out.CacheHit,
		Shared:   out.Shared,
		Attempts: out.Attempts,
	})
}

// fail counts and renders an error envelope.
func (s *Server) fail(w http.ResponseWriter, err error) {
	s.errors.Add(1)
	s.obsErrors.Add(1)
	writeError(w, err)
}

// --- batch evaluation ------------------------------------------------

// BatchRequest asks for many points; results stream back as NDJSON in
// submission order.
type BatchRequest struct {
	Model     ModelSpec     `json:"model"`
	Evaluator EvaluatorSpec `json:"evaluator,omitzero"`
	Points    [][]float64   `json:"points"`
}

// BatchResult is one NDJSON line of a batch response.
type BatchResult struct {
	Index    int        `json:"index"`
	Value    *jsonFloat `json:"value,omitempty"`
	CacheHit bool       `json:"cache_hit,omitempty"`
	Shared   bool       `json:"shared,omitempty"`
	Attempts int        `json:"attempts,omitempty"`
	Error    *ErrorBody `json:"error,omitempty"`
}

// BatchSummary is the final NDJSON line of a batch response.
type BatchSummary struct {
	Done      bool         `json:"done"`
	Points    int          `json:"points"`
	CacheHits int          `json:"cache_hits"`
	Errors    int          `json:"errors"`
	Canceled  bool         `json:"canceled,omitempty"`
	ElapsedMS int64        `json:"elapsed_ms"`
	Engine    engine.Stats `json:"engine"`
}

// handleBatch fans the points out through engine.EvaluateStream and
// streams each outcome as one NDJSON line, re-sequenced into submission
// order. Per-point failures are lines with an error field, not request
// failures; the stream always ends with a summary line.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchWire
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if len(req.Points) == 0 {
		s.fail(w, validationf("server: batch carries no points"))
		return
	}
	if len(req.Points) > s.opts.MaxBatchPoints {
		s.fail(w, validationf("server: batch of %d points exceeds the %d-point bound", len(req.Points), s.opts.MaxBatchPoints))
		return
	}
	fm, ev, err := s.resolveWork(req.Model, req.Evaluator)
	if err != nil {
		s.fail(w, err)
		return
	}
	dims := len(fm.Space().Params)
	for i, p := range req.Points {
		if len(p) != dims {
			err := checkPointDims(fm, p)
			s.fail(w, validationf("server: point %d: %s", i, strings.TrimPrefix(err.Error(), "server: ")))
			return
		}
	}

	start := time.Now()
	stats0 := s.eng.Stats()
	out := newNDJSONWriter(w)
	defer out.Close()
	lines := newBatchLines(out, len(req.Points))
	hits, failures := 0, 0
	streamErr := s.streamRouted(r.Context(), ev, req.Model, req.Evaluator, req.Points, func(i int, o engine.Outcome) {
		if o.Err != nil {
			failures++
		}
		if o.CacheHit || o.Shared {
			hits++
		}
		lines.add(i, o)
	})
	out.Emit(BatchSummary{
		Done:      true,
		Points:    len(req.Points),
		CacheHits: hits,
		Errors:    failures,
		Canceled:  streamErr != nil,
		ElapsedMS: time.Since(start).Milliseconds(),
		Engine:    s.eng.Stats().Delta(stats0),
	})
}

// --- streaming sweep -------------------------------------------------

// SweepRequest runs a server-side resilient sweep over a space.
type SweepRequest struct {
	Model     ModelSpec     `json:"model"`
	Evaluator EvaluatorSpec `json:"evaluator,omitzero"`
	Space     SpaceSpec     `json:"space"`
	// Indices restricts the sweep to these flat indices (nil: the whole
	// space).
	Indices []int `json:"indices,omitempty"`
	// Checkpoint names a checkpoint file inside the server's checkpoint
	// directory; Resume restores it before sweeping.
	Checkpoint string `json:"checkpoint,omitempty"`
	Resume     bool   `json:"resume,omitempty"`
	// CheckpointEvery is the completed-evaluation cadence between
	// periodic checkpoint writes (0: the sweep default).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// IncludeValues asks for the dense value slice in the result frame.
	IncludeValues bool `json:"include_values,omitempty"`
	// ProgressMS is the progress-frame cadence in milliseconds (0: 500).
	ProgressMS int `json:"progress_ms,omitempty"`
}

// SweepProgress is a periodic NDJSON heartbeat of a running sweep.
type SweepProgress struct {
	Type string `json:"type"` // "progress"
	// Evaluated counts raw evaluator invocations so far (cache hits do
	// not appear here; they cost no evaluation).
	Evaluated int64 `json:"evaluated"`
	Total     int   `json:"total"`
	ElapsedMS int64 `json:"elapsed_ms"`
}

// SweepResult is the final NDJSON frame of a sweep response.
type SweepResult struct {
	Type      string          `json:"type"` // "result"
	Report    dse.SweepReport `json:"report"`
	BestIndex int             `json:"best_index"`
	BestPoint []float64       `json:"best_point,omitempty"`
	BestValue *jsonFloat      `json:"best_value,omitempty"`
	Values    []jsonFloat     `json:"values,omitempty"`
	Error     *ErrorBody      `json:"error,omitempty"`
	Engine    engine.Stats    `json:"engine"`
}

// countingEvaluator wraps an evaluator with a raw-invocation counter for
// per-request progress frames; the fingerprint forwards so memoization
// still applies.
type countingEvaluator struct {
	inner robust.Evaluator
	n     *atomic.Int64
}

func (c countingEvaluator) EvaluateCtx(ctx context.Context, point []float64) (float64, error) {
	c.n.Add(1)
	return c.inner.EvaluateCtx(ctx, point)
}

// Fingerprint implements engine.Fingerprinter by forwarding the wrapped
// evaluator's identity (counting is transparent to memoization).
func (c countingEvaluator) Fingerprint() string {
	if f, ok := c.inner.(engine.Fingerprinter); ok {
		return f.Fingerprint()
	}
	return ""
}

// countingBatchEvaluator additionally forwards the batched path, so
// counting a batch-capable evaluator (the catalog models) does not
// silently demote sweeps to per-point dispatch.
type countingBatchEvaluator struct {
	countingEvaluator
	batch engine.BatchEvaluator
}

func (c countingBatchEvaluator) EvaluateBatch(ctx context.Context, points [][]float64, out []float64) error {
	c.n.Add(int64(len(points)))
	return c.batch.EvaluateBatch(ctx, points, out)
}

// withCount wraps ev with the counter, preserving cacheability — an
// evaluator without a fingerprint stays anonymous (the engine must not
// cache under an empty shared key) — and batch capability.
func withCount(ev dse.CtxEvaluator, n *atomic.Int64) dse.CtxEvaluator {
	if f, ok := ev.(engine.Fingerprinter); ok && f.Fingerprint() != "" {
		if be, ok := ev.(engine.BatchEvaluator); ok {
			return countingBatchEvaluator{
				countingEvaluator: countingEvaluator{inner: ev, n: n},
				batch:             be,
			}
		}
		return countingEvaluator{inner: ev, n: n}
	}
	return robust.EvaluatorFunc(func(ctx context.Context, point []float64) (float64, error) {
		n.Add(1)
		return ev.EvaluateCtx(ctx, point)
	})
}

// handleSweep runs dse.SweepCtx on the shared engine and streams NDJSON:
// progress heartbeats while the sweep runs, then one result frame with
// the structured report (and optionally the dense values). In a cluster
// the sweep is partitioned by ring ownership first (cluster.go).
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.serveSweep(w, r, true)
}

// serveSweep is the shared sweep engine behind /v1/sweep (partition =
// true) and /internal/v1/peer-sweep (partition = false: a forwarded
// sub-sweep always evaluates locally, so ring disagreement between peers
// cannot ping-pong work).
func (s *Server) serveSweep(w http.ResponseWriter, r *http.Request, partition bool) {
	var req SweepRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	work, err := s.sweepWork(r.Context(), &req)
	if err != nil {
		s.fail(w, err)
		return
	}
	unlock, err := s.lockCheckpoint(work.opts.CheckpointPath)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer unlock()

	var evaluated atomic.Int64
	counted := withCount(work.ev, &evaluated)
	cadence := time.Duration(req.ProgressMS) * time.Millisecond
	if cadence <= 0 {
		cadence = 500 * time.Millisecond
	}
	start := time.Now()
	stats0 := s.eng.Stats()
	out := newNDJSONWriter(w)
	defer out.Close()

	type sweepDone struct {
		values []float64
		report dse.SweepReport
		err    error
	}
	doneCh := make(chan sweepDone, 1)
	rp := newRemoteProgress()
	go func() {
		var values []float64
		var report dse.SweepReport
		var err error
		if partition && s.cluster != nil {
			values, report, err = s.clusterSweep(r.Context(), req, work.space, counted, work.opts, rp)
		} else {
			values, report, err = dse.SweepCtx(r.Context(), counted, work.space, req.Indices, work.opts)
		}
		doneCh <- sweepDone{values: values, report: report, err: err}
	}()

	ticker := time.NewTicker(cadence)
	defer ticker.Stop()
	var done sweepDone
	for waiting := true; waiting; {
		select {
		case done = <-doneCh:
			waiting = false
		case <-ticker.C:
			out.Emit(SweepProgress{
				Type:      "progress",
				Evaluated: evaluated.Load() + rp.total(),
				Total:     work.total,
				ElapsedMS: time.Since(start).Milliseconds(),
			})
		}
	}

	best := sweepOutcome(work.space, done.values, req.IncludeValues)
	frame := SweepResult{
		Type:      "result",
		Report:    done.report,
		BestIndex: best.BestIndex,
		BestPoint: best.BestPoint,
		BestValue: best.BestValue,
		Values:    best.Values,
		Engine:    s.eng.Stats().Delta(stats0),
	}
	if done.err != nil && !errors.Is(done.err, context.Canceled) {
		_, body := classify(done.err)
		frame.Error = &body
	}
	out.Emit(frame)
}

// --- APS -------------------------------------------------------------

// APSRequest runs the full Analysis-Plus-Simulation flow server-side.
type APSRequest struct {
	Model     ModelSpec     `json:"model"`
	Evaluator EvaluatorSpec `json:"evaluator,omitzero"`
	Space     SpaceSpec     `json:"space"`
	// Radius widens the simulated neighborhood around the analytic
	// optimum (0: the paper's issue×ROB-only slice).
	Radius int `json:"radius,omitempty"`
	// Metric selects the objective: "time" (default) or "time_per_work".
	Metric     string `json:"metric,omitempty"`
	Checkpoint string `json:"checkpoint,omitempty"`
	Resume     bool   `json:"resume,omitempty"`
}

// APSDesign is the analytic solution in response form.
type APSDesign struct {
	N        int       `json:"n"`
	CoreArea jsonFloat `json:"a0"`
	L1Area   jsonFloat `json:"a1"`
	L2Area   jsonFloat `json:"a2"`
	Time     jsonFloat `json:"time"`
	Method   string    `json:"method"`
	Regime   int       `json:"regime"`
}

// APSResponse is the JSON result of an APS run.
type APSResponse struct {
	Analytic       APSDesign       `json:"analytic"`
	Snapped        []int           `json:"snapped"`
	BestIndex      int             `json:"best_index"`
	BestPoint      []float64       `json:"best_point,omitempty"`
	BestValue      *jsonFloat      `json:"best_value,omitempty"`
	Simulations    int             `json:"simulations"`
	AnalyticPoints int             `json:"analytic_points"`
	SpaceSize      int             `json:"space_size"`
	Report         dse.SweepReport `json:"report"`
	Engine         engine.Stats    `json:"engine"`
}

// handleAPS runs the APS flow the resolved family supports (runAPS) on
// the shared engine.
func (s *Server) handleAPS(w http.ResponseWriter, r *http.Request) {
	var req APSRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	work, err := s.apsWork(r.Context(), &req)
	if err != nil {
		s.fail(w, err)
		return
	}
	unlock, err := s.lockCheckpoint(work.opts.CheckpointPath)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer unlock()
	res, err := s.runAPS(r.Context(), work)
	if err != nil {
		s.fail(w, fmt.Errorf("aps: %w", err))
		return
	}
	writeJSON(w, apsResponse(res))
}

// --- catalog ---------------------------------------------------------

// CatalogParam documents one family parameter on the wire.
type CatalogParam struct {
	Name    string    `json:"name"`
	Lo      jsonFloat `json:"lo"`
	Hi      jsonFloat `json:"hi"`
	Default jsonFloat `json:"default"`
	Doc     string    `json:"doc,omitempty"`
}

// CatalogFamily documents one registered model family on the wire.
type CatalogFamily struct {
	Name   string         `json:"name"`
	Doc    string         `json:"doc,omitempty"`
	Params []CatalogParam `json:"params,omitempty"`
}

// CatalogResponse is the GET /v1/catalog payload: the wire schema, the
// named applications, and every registered model family with its
// documented parameter domains.
type CatalogResponse struct {
	Schema   string          `json:"schema"`
	Apps     []string        `json:"apps"`
	Families []CatalogFamily `json:"families"`
}

// handleCatalog lists the applications and model families a client can
// name in a ModelSpec, with the parameter domains the server validates
// overrides against.
func (s *Server) handleCatalog(w http.ResponseWriter, _ *http.Request) {
	resp := CatalogResponse{
		Schema: CatalogSchema,
		Apps:   s.catalog.Names(),
	}
	for _, name := range s.catalog.Families() {
		f, ok := model.Lookup(name)
		if !ok {
			continue
		}
		cf := CatalogFamily{Name: f.Name, Doc: f.Doc}
		for _, p := range f.Params {
			cf.Params = append(cf.Params, CatalogParam{
				Name:    p.Name,
				Lo:      jsonFloat(p.Lo),
				Hi:      jsonFloat(p.Hi),
				Default: jsonFloat(p.Default),
				Doc:     p.Doc,
			})
		}
		resp.Families = append(resp.Families, cf)
	}
	writeJSON(w, resp)
}
