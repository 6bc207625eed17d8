package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	c2bound "repro"
)

// The sweep-paper workload: two consecutive dse sweeps of the full
// 10^6-point paper space on one engine with the default 2^18-entry memo
// cache. The working set is four times the cache, so the engine's
// insert/evict and chunked dispatch are measured against the compiled
// kernel; the repeat pass finds nothing cached. The seed draws the
// model's fseq and the sampled indices of the correctness gate.

// sweepChecksum is the committed FNV-1a checksum of all swept values at
// the default seed and paper scale.
const sweepChecksum = 0x80953f65b75d8eb3

// sweepSamples is how many seeded indices per pass are re-evaluated on
// the scalar path.
const sweepSamples = 64

// sweepSet is one set-up: model, evaluator, space and a fresh engine.
type sweepSet struct {
	ev    *c2bound.FamilyEvaluator
	space c2bound.DesignSpace
	eng   *c2bound.Engine
	opts  []c2bound.Option
}

func sweepModel(cfg config) (c2bound.FamilyModel, error) {
	app := c2bound.FluidanimateApp()
	app.Fseq = workloadFseq(cfg.seed)
	return c2bound.BuildModel(app)
}

func newSweepSet(cfg config, traced bool) (sweepSet, time.Duration, error) {
	t0 := time.Now()
	var s sweepSet
	fm, err := sweepModel(cfg)
	if err != nil {
		return s, 0, err
	}
	s.ev = c2bound.NewFamilyEvaluator(fm)
	if s.space, err = c2bound.FamilyDesignSpace(fm, cfg.scale.sweepPer); err != nil {
		return s, 0, err
	}
	engOpts := c2bound.EngineOptions{}
	if traced {
		engOpts.Tracer, engOpts.Metrics = c2bound.NewTracer(0), c2bound.NewMetrics()
		s.opts = append(s.opts, c2bound.WithTracer(engOpts.Tracer), c2bound.WithMetrics(engOpts.Metrics))
	}
	s.eng = c2bound.NewEngine(engOpts)
	s.opts = append(s.opts, c2bound.WithEngine(s.eng))
	return s, time.Since(t0), nil
}

// checksum is FNV-1a over the values' bit patterns in index order.
func checksum(values []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range values {
		b := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h ^= b & 0xff
			h *= 1099511628211
			b >>= 8
		}
	}
	return h
}

// sweepGate checks one pass: complete, no failures, a seeded sample
// bit-identical to scalar evaluation on a fresh evaluator, and the
// checksum equal to every earlier pass's (and to the committed one at
// the default seed).
type sweepGate struct {
	cfg  config
	ref  *c2bound.FamilyEvaluator
	rng  splitmix64
	sum  uint64
	seen bool
}

func (g *sweepGate) check(o *outcome, label string, space c2bound.DesignSpace, values []float64) bool {
	before := len(o.mismatches)
	for k := 0; k < sweepSamples; k++ {
		i := g.rng.intn(len(values))
		if want := g.ref.Evaluate(space.Point(i)); math.Float64bits(want) != math.Float64bits(values[i]) {
			o.mismatch("sweep %s: index %d is %v, scalar evaluation gives %v", label, i, values[i], want)
			break
		}
	}
	sum := checksum(values)
	switch {
	case !g.seen:
		g.sum, g.seen = sum, true
		if g.cfg.seed == 0 && g.cfg.scale == paperScale && sum != sweepChecksum {
			o.mismatch("sweep %s: checksum %#x, committed %#x", label, sum, uint64(sweepChecksum))
		}
	case sum != g.sum:
		o.mismatch("sweep %s: checksum %#x differs from the first pass's %#x", label, sum, g.sum)
	}
	return len(o.mismatches) == before
}

// sweepPass runs one timed sweep and gates it.
func sweepPass(ctx context.Context, cfg config, o *outcome, g *sweepGate, s sweepSet, label string) (time.Duration, error) {
	runtime.GC() // start every timed pass from the same heap state
	start := time.Now()
	values, rep, err := c2bound.Sweep(ctx, cfg.wrapped(s.ev), s.space, s.opts...)
	d := time.Since(start)
	o.attempted++
	if err != nil {
		return d, fmt.Errorf("sweep %s: %w", label, err)
	}
	ok := true
	if len(rep.Failed) > 0 || len(rep.Completed) != rep.Total || rep.Total != s.space.Size() {
		o.mismatch("sweep %s: %d/%d completed, %d failed", label, len(rep.Completed), rep.Total, len(rep.Failed))
		ok = false
	}
	if !g.check(o, label, s.space, values) || !ok {
		o.failed++
	}
	return d, nil
}

// sweepTimes is what a series of pass pairs measured: per-pair set-up
// and pass durations, and the last pair's engine counters and
// allocations (traced runs).
type sweepTimes struct {
	setups, first, repeat []time.Duration
	last                  c2bound.EngineStats
	mallocs               uint64
}

// sweepPairs runs set-up + first + repeat pass until the budget is
// spent (at least once).
func sweepPairs(ctx context.Context, cfg config, o *outcome, g *sweepGate, budget time.Duration, rec *recorder) (sweepTimes, error) {
	var t sweepTimes
	start := time.Now()
	for len(t.first) == 0 || time.Since(start) < budget {
		s, setup, err := newSweepSet(cfg, rec != nil)
		if err != nil {
			return t, err
		}
		t.setups = append(t.setups, setup)
		var ms0, ms1 runtime.MemStats
		if cfg.trace {
			runtime.ReadMemStats(&ms0)
		}
		sp := rec.begin("dse.sweep", -1)
		d1, err := sweepPass(ctx, cfg, o, g, s, "first")
		rec.end(sp)
		if err != nil {
			return t, err
		}
		sp = rec.begin("dse.sweep", -1)
		d2, err := sweepPass(ctx, cfg, o, g, s, "repeat")
		rec.end(sp)
		if err != nil {
			return t, err
		}
		if cfg.trace {
			runtime.ReadMemStats(&ms1)
			t.mallocs = ms1.Mallocs - ms0.Mallocs
		}
		t.first = append(t.first, d1)
		t.repeat = append(t.repeat, d2)
		t.last = s.eng.Stats()
	}
	return t, nil
}

func runSweep(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome()
	fm, err := sweepModel(cfg)
	if err != nil {
		return nil, err
	}
	space, err := c2bound.FamilyDesignSpace(fm, cfg.scale.sweepPer)
	if err != nil {
		return nil, err
	}
	g := &sweepGate{cfg: cfg, ref: c2bound.NewFamilyEvaluator(fm), rng: splitmix64(cfg.seed ^ 0x5eed)}
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	t, err := sweepPairs(ctx, cfg, o, g, budget, nil)
	if err != nil {
		return nil, err
	}
	n := float64(space.Size())
	first, repeat := median(seconds(t.first)), median(seconds(t.repeat))
	var total float64
	for i := range t.first {
		total += (t.first[i] + t.repeat[i]).Seconds()
	}
	o.e2e["setup_s"] = median(seconds(t.setups))
	o.e2e["op_p50_ms"] = first * 1e3
	o.e2e["evals_per_s"] = 2 * n * float64(len(t.first)) / total
	o.layer["sweep_first_pts_per_s"] = n / first
	o.layer["sweep_repeat_pts_per_s"] = n / repeat
	o.note("sweep-paper: %d pass pairs over %.0f points; first %.3f s, repeat %.3f s (median); first passes %.3f s",
		len(t.first), n, first, repeat, seconds(t.first))

	if cfg.trace {
		st := t.last
		o.layer["engine.evictions"] = float64(st.Evictions)
		o.layer["engine.hit_ratio"] = st.HitRate()
		o.layer["engine.requests"] = float64(st.Requests)
		o.layer["engine.evaluations"] = float64(st.Evaluations)
		o.layer["engine.eval_wall_s"] = st.WallTime.Seconds()
		o.layer["engine.allocs_per_pt"] = float64(t.mallocs) / (2 * n)

		kernel, eng, err := sweepLadder(ctx, cfg, o, g, fm, space)
		if err != nil {
			return nil, err
		}
		sweep := first * 1e9 / n
		o.layer["core.kernel_ns_per_pt"] = kernel
		o.layer["engine.batch_ns_per_pt"] = eng
		o.layer["dse.sweep_ns_per_pt"] = sweep
		o.layer["sweep.efficiency"] = kernel / sweep
		o.notes = append(o.notes, ladder("sweep-paper", []rung{{"core", kernel}, {"engine", eng}, {"dse", sweep}}, o)...)

		o.spans = newRecorder()
		traced, err := sweepPairs(ctx, cfg, o, g, budget, o.spans)
		if err != nil {
			return nil, err
		}
		o.layer["obs.trace_overhead_pct"] = 100 * (median(seconds(traced.first))/first - 1)
	}
	o.e2e["peak_rss_mb"] = peakRSSMB()
	o.e2e["success_ratio"] = float64(o.attempted-o.failed) / float64(o.attempted)
	o.layer["fail_ratio"] = float64(o.failed) / float64(o.attempted)
	return o, nil
}

// sweepLadder times the two lower rungs over the sweep's point slab:
// the compiled kernel with no engine (split across GOMAXPROCS
// goroutines, as the engine's workers are) and Engine.EvaluateBatch on
// a fresh default engine. Both must reproduce the sweep's checksum.
func sweepLadder(ctx context.Context, cfg config, o *outcome, g *sweepGate, fm c2bound.FamilyModel, space c2bound.DesignSpace) (kernelNS, engineNS float64, err error) {
	ev := c2bound.NewFamilyEvaluator(fm)
	n := space.Size()
	slab := make([]float64, 0, n*space.Dims())
	points := make([][]float64, n)
	for i := range points {
		lo := len(slab)
		slab = space.AppendPoint(slab, i)
		points[i] = slab[lo:len(slab):len(slab)]
	}
	out := make([]float64, n)
	workers := runtime.GOMAXPROCS(0)
	var kernel, engine []float64
	for r := 0; r < ladderReps; r++ {
		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			lo, hi := w*n/workers, (w+1)*n/workers
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				errs[w] = cfg.wrapped(ev).(c2bound.BatchEvaluator).EvaluateBatch(ctx, points[lo:hi], out[lo:hi])
			}(w, lo, hi)
		}
		wg.Wait()
		kernel = append(kernel, float64(time.Since(start).Nanoseconds())/float64(n))
		for _, e := range errs {
			if e != nil {
				return 0, 0, fmt.Errorf("kernel rung: %w", e)
			}
		}
		if !g.check(o, "kernel rung", space, out) {
			o.failed++
		}

		eng := c2bound.NewEngine(c2bound.EngineOptions{})
		start = time.Now()
		if err := eng.EvaluateBatch(ctx, cfg.wrapped(ev), points, out); err != nil {
			return 0, 0, fmt.Errorf("engine rung: %w", err)
		}
		engine = append(engine, float64(time.Since(start).Nanoseconds())/float64(n))
		if !g.check(o, "engine rung", space, out) {
			o.failed++
		}
	}
	return median(kernel), median(engine), nil
}
