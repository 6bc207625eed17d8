// Tests of the public facade: every re-exported entry point must be
// reachable and consistent with the underlying implementation.
package c2bound_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	c2bound "repro"
	"repro/internal/dse"
)

func TestFacadeCAMAT(t *testing.T) {
	an, err := c2bound.Analyze(c2bound.Fig1Trace())
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	p := an.Params()
	if math.Abs(p.CAMAT()-1.6) > 1e-12 {
		t.Fatalf("C-AMAT = %v", p.CAMAT())
	}
	ser := c2bound.SerializeTrace(c2bound.Fig1Trace())
	anSer, err := c2bound.Analyze(ser)
	if err != nil {
		t.Fatalf("Analyze serialized: %v", err)
	}
	if anSer.Params().Concurrency() > 1+1e-9 {
		t.Fatal("serialized trace still concurrent")
	}
	det := c2bound.NewDetector()
	for _, a := range c2bound.Fig1Trace() {
		det.Record(a.Start, a.HitCycles, int64(a.MissPenalty))
	}
	if got := det.Params().CAMAT(); math.Abs(got-1.6) > 1e-12 {
		t.Fatalf("detector C-AMAT = %v", got)
	}
}

func TestFacadeSpeedupLaws(t *testing.T) {
	if got := c2bound.Amdahl(0.5, 1e9); math.Abs(got-2) > 1e-6 {
		t.Fatalf("Amdahl limit = %v", got)
	}
	if got := c2bound.Gustafson(0.5, 10); got != 5.5 {
		t.Fatalf("Gustafson = %v", got)
	}
	if got := c2bound.SunNi(0.5, c2bound.Linear(), 10); got != 5.5 {
		t.Fatalf("SunNi(g=N) = %v", got)
	}
	if got := c2bound.SunNi(0.5, c2bound.FixedSize(), 10); math.Abs(got-c2bound.Amdahl(0.5, 10)) > 1e-12 {
		t.Fatalf("SunNi(g=1) = %v", got)
	}
	if got := c2bound.PowerLaw(1.5)(4); got != 8 {
		t.Fatalf("PowerLaw = %v", got)
	}
	g, err := c2bound.GFromComplexity(
		func(n float64) float64 { return 2 * n * n * n },
		func(n float64) float64 { return 3 * n * n }, 64)
	if err != nil {
		t.Fatalf("GFromComplexity: %v", err)
	}
	if got := g(4); math.Abs(got-8) > 1e-6 {
		t.Fatalf("derived g(4) = %v", got)
	}
	rows := c2bound.Table1(1 << 20)
	if len(rows) != 4 {
		t.Fatalf("Table1 rows = %d", len(rows))
	}
}

func TestFacadeModelOptimize(t *testing.T) {
	m := c2bound.Model{Chip: c2bound.DefaultChip(), App: c2bound.FluidanimateApp()}
	res, err := m.Optimize(c2bound.OptimizeOptions{MaxN: 64})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Design.N < 1 || res.Eval.Throughput <= 0 {
		t.Fatalf("degenerate result %+v", res.Design)
	}
	if res.Regime != c2bound.MaximizeThroughput {
		t.Fatalf("regime = %v", res.Regime)
	}
	for _, preset := range []c2bound.App{
		c2bound.TMMApp(), c2bound.StencilApp(), c2bound.FFTApp(), c2bound.FluidanimateApp(),
	} {
		if err := preset.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", preset.Name, err)
		}
	}
}

func TestFacadeAllocateCores(t *testing.T) {
	apps := []c2bound.App{c2bound.StencilApp(), c2bound.TMMApp()}
	allocs, err := c2bound.AllocateCores(c2bound.DefaultChip(), apps, 16)
	if err != nil {
		t.Fatalf("AllocateCores: %v", err)
	}
	total := 0
	for _, al := range allocs {
		total += al.Cores
	}
	if total > 16 {
		t.Fatalf("allocated %d of 16", total)
	}
}

func TestFacadeSimulator(t *testing.T) {
	res, err := c2bound.RunWorkload(c2bound.DefaultMachine(2), "stencil", 1<<20, 2, 5000, 1)
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	if res.CPI <= 0 {
		t.Fatalf("CPI = %v", res.CPI)
	}
	// Generator-based path.
	g, err := c2bound.NewGenerator("stream", 1<<20, 2, 1)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	traces := [][]c2bound.Ref{c2bound.TakeRefs(g, 1000), c2bound.TakeRefs(g, 1000)}
	res2, err := c2bound.RunMachine(c2bound.DefaultMachine(2), traces)
	if err != nil {
		t.Fatalf("RunMachine: %v", err)
	}
	if res2.MemAccesses != 2000 {
		t.Fatalf("accesses = %d", res2.MemAccesses)
	}
	if len(c2bound.Workloads()) < 7 {
		t.Fatal("workload list too short")
	}
}

// facadeSpace is the c2bound family's §IV space through the façade,
// subsampled to per values per dimension (per ≤ 0: the full grid).
func facadeSpace(t *testing.T, per int) c2bound.DesignSpace {
	t.Helper()
	fm, err := c2bound.BuildModel(c2bound.FluidanimateApp())
	if err != nil {
		t.Fatalf("BuildModel: %v", err)
	}
	space, err := c2bound.FamilyDesignSpace(fm, per)
	if err != nil {
		t.Fatalf("FamilyDesignSpace: %v", err)
	}
	return space
}

func TestFacadeDSEAndAPS(t *testing.T) {
	chipCfg := c2bound.DefaultChip()
	space := facadeSpace(t, 3)
	if full := facadeSpace(t, 0); full.Size() != 1000000 {
		t.Fatalf("paper space size = %d, want 10^6", full.Size())
	}
	// Cheap evaluator through the facade types.
	eval := c2bound.EvaluatorFunc(func(p []float64) float64 {
		return 1000/p[3] + p[0] + 100/p[5] + 10/p[4] + 1/p[1] + 1/p[2]
	})
	values, report, err := c2bound.Sweep(context.Background(), c2bound.AdaptEvaluator(eval), space, c2bound.WithWorkers(2))
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(values) != space.Size() || len(report.Completed) != space.Size() {
		t.Fatalf("sweep size = %d, completed = %d", len(values), len(report.Completed))
	}
	app := c2bound.FluidanimateApp()
	app.G = c2bound.FixedSize()
	app.GOrder = 0
	m := c2bound.Model{Chip: chipCfg, App: app}
	res, err := c2bound.RunAPS(context.Background(), m, space, c2bound.AdaptEvaluator(eval),
		c2bound.WithOptimize(c2bound.OptimizeOptions{MaxN: 64}))
	if err != nil {
		t.Fatalf("RunAPS: %v", err)
	}
	if res.Simulations != 9 {
		t.Fatalf("APS sims = %d, want 3x3", res.Simulations)
	}
}

func TestFacadeV2Options(t *testing.T) {
	chipCfg := c2bound.DefaultChip()
	space := facadeSpace(t, 3)
	eval := c2bound.EvaluatorFunc(func(p []float64) float64 {
		return 1000/p[3] + p[0] + 100/p[5] + 10/p[4] + 1/p[1] + 1/p[2]
	})
	app := c2bound.FluidanimateApp()
	app.G = c2bound.FixedSize()
	app.GOrder = 0
	m := c2bound.Model{Chip: chipCfg, App: app}

	tracer := c2bound.NewTracer(1 << 12)
	metrics := c2bound.NewMetrics()
	eng := c2bound.NewEngine(c2bound.EngineOptions{Workers: 2, Tracer: tracer, Metrics: metrics})
	res, err := c2bound.RunAPS(context.Background(), m, space, c2bound.AdaptEvaluator(eval),
		c2bound.WithEngine(eng),
		c2bound.WithTracer(tracer),
		c2bound.WithMetrics(metrics),
		c2bound.WithOptimize(c2bound.OptimizeOptions{MaxN: 64}))
	if err != nil {
		t.Fatalf("RunAPS: %v", err)
	}
	if res.BestIdx < 0 {
		t.Fatalf("no best point: %+v", res)
	}

	// The engine counters in the registry must match the engine's own
	// stats, and the run must have produced the staged spans.
	if got, want := metrics.Counter("engine_requests_total").Value(), eng.Stats().Requests; got != want {
		t.Fatalf("engine_requests_total = %d, engine.Stats().Requests = %d", got, want)
	}
	names := map[string]bool{}
	for _, sp := range tracer.Snapshot() {
		names[sp.Name] = true
	}
	for _, want := range []string{"aps.run", "aps.optimize", "aps.grid-snap", "aps.slice", "dse.sweep", "engine.eval"} {
		if !names[want] {
			t.Fatalf("missing span %q in %v", want, names)
		}
	}
	var buf bytes.Buffer
	if err := metrics.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	if !strings.Contains(buf.String(), "aps_runs_total 1") {
		t.Fatalf("exposition missing aps_runs_total:\n%s", buf.String())
	}

	// Optimize v2 with a private caching engine.
	optRes, err := c2bound.Optimize(context.Background(), m,
		c2bound.WithCacheSize(1<<12),
		c2bound.WithOptimize(c2bound.OptimizeOptions{MaxN: 64}))
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if optRes.Design.N < 1 {
		t.Fatalf("degenerate optimize result %+v", optRes.Design)
	}
}

func TestFacadeBaselines(t *testing.T) {
	s, err := c2bound.HillMartySymmetric(0.2, 64, 4)
	if err != nil || s <= 1 {
		t.Fatalf("HillMartySymmetric: %v %v", s, err)
	}
	if _, err := c2bound.HillMartyAsymmetric(0.2, 64, 8); err != nil {
		t.Fatalf("asymmetric: %v", err)
	}
	if _, err := c2bound.HillMartyDynamic(0.2, 64, 64); err != nil {
		t.Fatalf("dynamic: %v", err)
	}
	sc, err := c2bound.SunChen(0.2, 64, 4, c2bound.Linear())
	if err != nil || sc <= s {
		t.Fatalf("SunChen %v not above fixed-size Hill-Marty %v (%v)", sc, s, err)
	}
	tt, err := c2bound.CassidyAndreou(0.5, 0.3, 4, 0.1, 16)
	if err != nil || tt <= 0 {
		t.Fatalf("CassidyAndreou: %v %v", tt, err)
	}
}

func TestFacadeChipModel(t *testing.T) {
	cfg := c2bound.DefaultChip()
	d := c2bound.Design{N: 8, CoreArea: 4, L1Area: 1, L2Area: 4}
	if err := cfg.CheckFeasible(d); err != nil {
		t.Fatalf("feasible design rejected: %v", err)
	}
	if cfg.CPIExe(d) <= 0 {
		t.Fatal("CPI_exe")
	}
	curve := c2bound.MissRateCurve{Base: 0.1, RefKB: 32, Alpha: 0.5}
	if got := curve.At(128); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("miss curve = %v", got)
	}
	p := c2bound.Pollack{K0: 1, Phi0: 0.2}
	if got := p.CPIExe(4); got != 0.7 {
		t.Fatalf("Pollack = %v", got)
	}
}

func TestFacadeExtensions(t *testing.T) {
	app := c2bound.FluidanimateApp()
	app.G = c2bound.FixedSize()
	app.GOrder = 0
	m := c2bound.Model{Chip: c2bound.DefaultChip(), App: app}

	// Energy.
	pm := c2bound.DefaultPowerModel()
	d, e, err := m.OptimizeEnergy(pm, c2bound.MinEDP, c2bound.OptimizeOptions{MaxN: 32})
	if err != nil {
		t.Fatalf("OptimizeEnergy: %v", err)
	}
	if d.N < 1 || e.EDP <= 0 {
		t.Fatalf("degenerate energy result %+v", d)
	}
	frontier, err := m.ParetoFrontier(pm, c2bound.OptimizeOptions{MaxN: 32})
	if err != nil || len(frontier) == 0 {
		t.Fatalf("ParetoFrontier: %v (%d)", err, len(frontier))
	}

	// Asymmetric.
	am := c2bound.AsymModel{Chip: m.Chip, App: m.App}
	ad, ae, err := am.OptimizeAsym(c2bound.OptimizeOptions{MaxN: 32})
	if err != nil {
		t.Fatalf("OptimizeAsym: %v", err)
	}
	if ad.BigArea <= 0 || ae.Time <= 0 {
		t.Fatalf("degenerate asym result %+v", ad)
	}

	// Generalized objective.
	profile := c2bound.TwoPhaseProfile(0.1, 16)
	if err := c2bound.ValidateProfile(profile); err != nil {
		t.Fatalf("ValidateProfile: %v", err)
	}
	tg, err := m.TimeGeneralized(c2bound.Design{N: 16, CoreArea: 4, L1Area: 1, L2Area: 4}, profile)
	if err != nil || tg <= 0 {
		t.Fatalf("TimeGeneralized: %v %v", tg, err)
	}

	// Multi-level C-AMAT.
	h := c2bound.CAMATHierarchy{
		Levels: []c2bound.CAMATLevel{
			{H: 3, CH: 2, CM: 2, PMR: 0.1, Kappa: 1, Amplification: 1},
			{H: 12, CH: 1.5, CM: 3, PMR: 0.3, Kappa: 1, Amplification: 1},
		},
		MemLatency: 200,
	}
	v, err := h.CAMAT()
	if err != nil || v <= 0 {
		t.Fatalf("hierarchy CAMAT: %v %v", v, err)
	}
}

func TestFacadePartitionAndMixed(t *testing.T) {
	parts, err := c2bound.PartitionCache(c2bound.DefaultChip(),
		[]c2bound.App{c2bound.StencilApp(), c2bound.TMMApp()}, 2048, 128)
	if err != nil {
		t.Fatalf("PartitionCache: %v", err)
	}
	if len(parts) != 2 || parts[0].CapacityKB <= 0 {
		t.Fatalf("partition result %+v", parts)
	}
}

// TestFacadeOptimizeFamily checks OptimizeFamily against the public
// ground truth for every built-in family: its best index and value equal
// dse.Best over Sweep of FamilyDesignSpace bit for bit, and its space
// size is the product of the grid lengths.
func TestFacadeOptimizeFamily(t *testing.T) {
	const per = 3
	for _, family := range []string{c2bound.FamilyC2Bound, c2bound.FamilyGPU, c2bound.FamilyCommSync, c2bound.FamilySqrtM} {
		m, err := c2bound.BuildModel(c2bound.TMMApp(), c2bound.WithFamily(family))
		if err != nil {
			t.Fatalf("%s: BuildModel: %v", family, err)
		}
		space, err := c2bound.FamilyDesignSpace(m, per)
		if err != nil {
			t.Fatalf("%s: FamilyDesignSpace: %v", family, err)
		}
		values, _, err := c2bound.Sweep(context.Background(), c2bound.NewFamilyEvaluator(m), space)
		if err != nil {
			t.Fatalf("%s: Sweep: %v", family, err)
		}
		wantIdx, wantVal := dse.Best(values)
		got, err := c2bound.OptimizeFamily(context.Background(), m, per)
		if err != nil {
			t.Fatalf("%s: OptimizeFamily: %v", family, err)
		}
		if got.BestIdx != wantIdx || math.Float64bits(got.BestValue) != math.Float64bits(wantVal) {
			t.Fatalf("%s: OptimizeFamily best %d = %v, Sweep best %d = %v", family, got.BestIdx, got.BestValue, wantIdx, wantVal)
		}
		size := 1
		for _, p := range space.Params {
			size *= len(p.Values)
		}
		if got.SpaceSize != size {
			t.Fatalf("%s: SpaceSize %d, want %d", family, got.SpaceSize, size)
		}
	}
}
