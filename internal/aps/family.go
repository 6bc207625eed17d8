package aps

import (
	"context"
	"fmt"

	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/obs"
)

// ModelOptions tunes a family-generic grid optimization.
type ModelOptions struct {
	// Engine is the shared evaluation service; nil builds a private one.
	// Runs against a shared engine reuse every memoized point keyed by
	// the evaluator's family-qualified fingerprint.
	Engine *engine.Engine
	// Workers bounds sweep parallelism (≤0: GOMAXPROCS). Ignored when
	// Engine is set.
	Workers int
	// Sweep tunes resilience: retry policy, timeout, checkpointing.
	Sweep dse.SweepOptions
}

// ModelResult is the outcome of a family-generic grid optimization.
type ModelResult struct {
	Space     dse.Space
	BestIdx   int
	BestPoint []float64
	BestValue float64
	SpaceSize int
	// Report is the resilience accounting of the sweep.
	Report dse.SweepReport
	// Engine is the engine counter delta across this run.
	Engine engine.Stats
}

// RunModelCtx optimizes a model family by an exhaustive scan of space
// with ev, the family-generic sibling of RunCtx: the C²-Bound family
// keeps the full APS flow (analytic KKT solve plus simulated slice)
// because only it carries the analytic machinery, while any family can
// be scanned here. The caller resolves the space and the evaluator (for
// example dse.SpaceFor and dse.NewFamilyEvaluator), so its own wrappers
// — fault hooks, progress counters — see every point. The whole grid
// rides the engine's batched path when ev has one; a repeated run on a
// shared engine re-reads the scan from cache.
func RunModelCtx(ctx context.Context, space dse.Space, ev dse.CtxEvaluator, opts ModelOptions) (ModelResult, error) {
	tr := obs.TracerFrom(ctx)
	obs.MetricsFrom(ctx).Counter("aps_model_runs_total").Add(1)
	ctx, runSp := tr.Start(ctx, "aps.run-model", obs.I("space_size", int64(space.Size())))
	defer runSp.Finish()

	eng := opts.Engine
	if eng == nil {
		eng = engine.New(engine.Options{
			Workers: opts.Workers,
			Retry:   opts.Sweep.Retry,
			Tracer:  tr,
			Metrics: obs.MetricsFrom(ctx),
		})
	}
	stats0 := eng.Stats()

	sweepOpts := opts.Sweep
	if sweepOpts.Workers == 0 {
		sweepOpts.Workers = opts.Workers
	}
	sweepOpts.Engine = eng
	values, report, sweepErr := dse.SweepCtx(ctx, ev, space, nil, sweepOpts)
	bestIdx, bestVal := dse.Best(values)
	res := ModelResult{
		Space:     space,
		BestIdx:   bestIdx,
		SpaceSize: space.Size(),
		Report:    report,
		Engine:    eng.Stats().Delta(stats0),
	}
	if bestIdx >= 0 {
		res.BestPoint = space.Point(bestIdx)
		res.BestValue = bestVal
	}
	if sweepErr != nil {
		return res, fmt.Errorf("aps: model grid scan interrupted (%d/%d evaluated): %w",
			len(report.Completed), report.Total, sweepErr)
	}
	if bestIdx < 0 {
		return res, fmt.Errorf("aps: no feasible configuration in the %d-point grid", space.Size())
	}
	return res, nil
}
