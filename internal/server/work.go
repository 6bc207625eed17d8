package server

import (
	"context"
	"sync/atomic"

	"repro/internal/aps"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/model"
)

// Request resolution has one home: every route and job runner turns its
// request into work here (model → space → evaluator → checks), so the
// synchronous handlers and the durable jobs accept the same requests and
// compute the same answers.

// testWrapEvaluator, when non-nil, wraps every evaluator the server
// resolves — singles, batches, sweeps, APS, and job attempts. Tests
// point it at a fault-injection harness to prove the error envelope
// stays stable when the engine misbehaves; production code never sets
// it.
var testWrapEvaluator func(dse.CtxEvaluator) dse.CtxEvaluator

// wrapEvaluator applies the test fault hook when one is installed.
func wrapEvaluator(ev dse.CtxEvaluator) dse.CtxEvaluator {
	if testWrapEvaluator != nil {
		return testWrapEvaluator(ev)
	}
	return ev
}

// resolveWork builds the (model, evaluator) pair every work route
// shares, returning the resolved model too so callers can validate
// points or build spaces against its declared dimensions. Every family,
// c2bound included, goes through the registry, so catalog/1 and
// catalog/2 clients of one model share memo entries.
func (s *Server) resolveWork(m ModelSpec, e EvaluatorSpec) (model.Model, dse.CtxEvaluator, error) {
	fm, err := s.catalog.ResolveModel(m)
	if err != nil {
		return nil, nil, err
	}
	ev, err := s.catalog.Evaluator(fm, e)
	if err != nil {
		return nil, nil, err
	}
	return fm, wrapEvaluator(ev), nil
}

// sweepOptions resolves a request's checkpoint name into sweep options
// and enforces the pairing: resuming needs a named checkpoint. sweepWork
// sets the request's stream and APS its own engine. Job runners replace
// both checkpoint fields with the job's own checkpoint.
func (s *Server) sweepOptions(ctx context.Context, checkpoint string, resume bool) (dse.SweepOptions, error) {
	path, err := s.checkpointPath(ctx, checkpoint)
	if err != nil {
		return dse.SweepOptions{}, err
	}
	if resume && path == "" {
		return dse.SweepOptions{}, validationf("server: resume requires a checkpoint name")
	}
	return dse.SweepOptions{CheckpointPath: path, Resume: resume}, nil
}

// sweepWork is a resolved sweep request.
type sweepWork struct {
	space dse.Space
	ev    dse.CtxEvaluator
	total int // points the sweep covers
	opts  dse.SweepOptions
}

// sweepWork resolves a sweep request for /v1/sweep and sweep jobs:
// model, space by Catalog.Space's one rule, the wrapped evaluator
// counting into evaluated, index bounds, the checkpoint/resume pairing
// and the request's stream (streamRouted), whose peer work counts into
// evaluated too.
func (s *Server) sweepWork(ctx context.Context, req *SweepRequest, evaluated *atomic.Int64) (sweepWork, error) {
	fm, ev, err := s.resolveWork(req.Model, req.Evaluator)
	if err != nil {
		return sweepWork{}, err
	}
	space, err := s.catalog.Space(fm, req.Space)
	if err != nil {
		return sweepWork{}, err
	}
	for _, idx := range req.Indices {
		if idx < 0 || idx >= space.Size() {
			return sweepWork{}, validationf("server: index %d outside space of %d points", idx, space.Size())
		}
	}
	opts, err := s.sweepOptions(ctx, req.Checkpoint, req.Resume)
	if err != nil {
		return sweepWork{}, err
	}
	opts.Engine = s.streamRouted(req.Model, req.Evaluator, evaluated)
	opts.CheckpointEvery = req.CheckpointEvery
	total := len(req.Indices)
	if total == 0 {
		total = space.Size()
	}
	return sweepWork{space: space, ev: withCount(ev, evaluated), total: total, opts: opts}, nil
}

// sweepOutcome fills the best index, point and value (and the dense
// values when asked) of a finished sweep, for the /v1/sweep result frame
// and the sweep job result alike.
func sweepOutcome(space dse.Space, values []float64, includeValues bool) SweepJobResult {
	res := SweepJobResult{BestIndex: -1}
	if idx, val := dse.Best(values); idx >= 0 {
		res.BestIndex = idx
		res.BestPoint = space.Point(idx)
		v := jsonFloat(val)
		res.BestValue = &v
	}
	if includeValues {
		res.Values = jsonFloats(values)
	}
	return res
}

// apsWork is a resolved APS request.
type apsWork struct {
	model  model.Model
	space  dse.Space
	ev     dse.CtxEvaluator
	metric aps.Metric
	radius int
	opts   dse.SweepOptions
}

// apsWork resolves an APS request for /v1/aps and APS jobs: model,
// space by Catalog.Space's one rule, the wrapped evaluator, the metric
// (time_per_work needs the analytic form only c2bound has) and the
// checkpoint/resume pairing.
func (s *Server) apsWork(ctx context.Context, req *APSRequest) (apsWork, error) {
	fm, ev, err := s.resolveWork(req.Model, req.Evaluator)
	if err != nil {
		return apsWork{}, err
	}
	space, err := s.catalog.Space(fm, req.Space)
	if err != nil {
		return apsWork{}, err
	}
	metric := aps.MetricTime
	switch req.Metric {
	case "", "time":
	case "time_per_work":
		if _, ok := fm.(*model.C2Bound); !ok {
			return apsWork{}, validationf("server: family APS supports only the time metric, got %q", req.Metric)
		}
		metric = aps.MetricTimePerWork
	default:
		return apsWork{}, validationf("server: unknown metric %q (want time or time_per_work)", req.Metric)
	}
	opts, err := s.sweepOptions(ctx, req.Checkpoint, req.Resume)
	if err != nil {
		return apsWork{}, err
	}
	return apsWork{model: fm, space: space, ev: ev, metric: metric, radius: req.Radius, opts: opts}, nil
}

// runAPS is the one place APS chooses its algorithm by family. The
// paper's c2bound family runs the analytic KKT solve plus the simulated
// slice (aps.RunCtx). Every other family has no analytic form, so it
// runs the engine-batched exhaustive scan of the space (aps.RunModelCtx),
// reported with the analytic block marked "grid", no snapped point, zero
// simulations and every grid point counted as analytic.
func (s *Server) runAPS(ctx context.Context, w apsWork) (aps.Result, error) {
	if cb, ok := w.model.(*model.C2Bound); ok {
		return aps.RunCtx(ctx, cb.CoreModel(), w.space, w.ev, aps.Options{
			Engine: s.eng,
			Radius: w.radius,
			Metric: w.metric,
			Sweep:  w.opts,
		})
	}
	res, err := aps.RunModelCtx(ctx, w.space, w.ev, aps.ModelOptions{Engine: s.eng, Sweep: w.opts})
	return aps.Result{
		Analytic:       core.Result{Method: "grid"},
		Snapped:        []int{},
		BestIdx:        res.BestIdx,
		BestPoint:      res.BestPoint,
		BestValue:      res.BestValue,
		AnalyticPoints: res.SpaceSize,
		SpaceSize:      res.SpaceSize,
		Report:         res.Report,
		Engine:         res.Engine,
	}, err
}

// apsResponse renders an APS result: the analytic design, the snapped
// point and the best simulated point with the run's counters. APS jobs
// keep its deterministic part (jobResult).
func apsResponse(res aps.Result) APSResponse {
	out := APSResponse{
		Analytic: APSDesign{
			N:        res.Analytic.Design.N,
			CoreArea: jsonFloat(res.Analytic.Design.CoreArea),
			L1Area:   jsonFloat(res.Analytic.Design.L1Area),
			L2Area:   jsonFloat(res.Analytic.Design.L2Area),
			Time:     jsonFloat(res.Analytic.Eval.Time),
			Method:   res.Analytic.Method,
			Regime:   int(res.Analytic.Regime),
		},
		Snapped:        res.Snapped,
		BestIndex:      res.BestIdx,
		Simulations:    res.Simulations,
		AnalyticPoints: res.AnalyticPoints,
		SpaceSize:      res.SpaceSize,
		Report:         res.Report,
		Engine:         res.Engine,
	}
	if res.BestIdx >= 0 {
		out.BestPoint = res.BestPoint
		v := jsonFloat(res.BestValue)
		out.BestValue = &v
	}
	return out
}

// jobResult drops the volatile counters, leaving the deterministic
// payload an APS job stores.
func (r APSResponse) jobResult() APSJobResult {
	return APSJobResult{
		Analytic:       r.Analytic,
		Snapped:        r.Snapped,
		BestIndex:      r.BestIndex,
		BestPoint:      r.BestPoint,
		BestValue:      r.BestValue,
		AnalyticPoints: r.AnalyticPoints,
		SpaceSize:      r.SpaceSize,
	}
}
