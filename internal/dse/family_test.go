package dse

import (
	"context"
	"math"
	"testing"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/robust"
)

func familyModel(t *testing.T, name string) model.Model {
	t.Helper()
	m, err := model.New(name, model.Config{Chip: chip.DefaultConfig(), App: core.TMMApp()})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// paperGrids is the golden §IV grid, written out independently of the
// c2bound family: N and the two microarchitectural dimensions are
// literal, and the per-core area budget left at the largest N is split
// 42/18/38% between A0, A1 and A2 so every combination fits the chip.
// A subsample keeps per values spread across each grid, always including
// the largest.
func paperGrids(cfg chip.Config, per int) [][]float64 {
	ns := []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32}
	maxPerCore := (cfg.TotalArea - cfg.FixedArea) / ns[len(ns)-1]
	steps := func(max float64) []float64 {
		vals := make([]float64, 10)
		for i := range vals {
			vals[i] = max * float64(i+1) / 10
		}
		return vals
	}
	grids := [][]float64{
		steps(0.42 * maxPerCore),
		steps(0.18 * maxPerCore),
		steps(0.38 * maxPerCore),
		ns,
		{1, 2, 3, 4, 5, 6, 7, 8, 12, 16},
		{16, 32, 48, 64, 96, 128, 160, 192, 224, 256},
	}
	if per <= 0 || per >= 10 {
		return grids
	}
	for i, g := range grids {
		vals := make([]float64, per)
		for j := range vals {
			vals[j] = g[(j+1)*len(g)/per-1]
		}
		grids[i] = vals
	}
	return grids
}

// TestSpaceForMatchesReducedSpace pins the c2bound family's space to the
// golden §IV grid bit for bit, both full and subsampled, with the
// dimension names in point order.
func TestSpaceForMatchesReducedSpace(t *testing.T) {
	m := familyModel(t, model.FamilyC2Bound)
	names := []string{DimA0, DimA1, DimA2, DimN, DimIssue, DimROB}
	for _, per := range []int{0, 1, 2, 3, 5, 10} {
		got, err := SpaceFor(m, per)
		if err != nil {
			t.Fatal(err)
		}
		want := paperGrids(chip.DefaultConfig(), per)
		if len(got.Params) != len(want) {
			t.Fatalf("per=%d: %d dims, want %d", per, len(got.Params), len(want))
		}
		for i, p := range got.Params {
			if p.Name != names[i] {
				t.Fatalf("per=%d dim %d: name %q, want %q", per, i, p.Name, names[i])
			}
			if len(p.Values) != len(want[i]) {
				t.Fatalf("per=%d dim %s: %d values, want %d", per, p.Name, len(p.Values), len(want[i]))
			}
			for j, v := range p.Values {
				if math.Float64bits(v) != math.Float64bits(want[i][j]) {
					t.Fatalf("per=%d dim %s[%d]: %v, want %v", per, p.Name, j, v, want[i][j])
				}
			}
		}
	}
}

// TestFamilyEvaluatorMatchesModelEvaluator pins the c2bound family to
// the paper objective written out inline — the uncompiled Eq. 10 time
// with the issue/ROB corrections, +Inf where the design does not fit —
// bit-for-bit over a reduced space, on both the scalar and the batched
// evaluator path.
func TestFamilyEvaluatorMatchesModelEvaluator(t *testing.T) {
	fam := NewFamilyEvaluator(familyModel(t, model.FamilyC2Bound))
	ref := core.Model{Chip: chip.DefaultConfig(), App: core.TMMApp()}
	s, err := SpaceFor(fam.M, 3)
	if err != nil {
		t.Fatal(err)
	}
	points := make([][]float64, s.Size())
	for i := range points {
		points[i] = s.Point(i)
	}
	batched := make([]float64, len(points))
	if err := fam.EvaluateBatch(context.Background(), points, batched); err != nil {
		t.Fatal(err)
	}
	feasible := 0
	for i, p := range points {
		want := math.Inf(1)
		d := chip.Design{N: int(p[3] + 0.5), CoreArea: p[0], L1Area: p[1], L2Area: p[2]}
		if e, err := ref.Evaluate(d); err == nil {
			issue, rob := p[4], p[5]
			want = e.Time * (1 + 0.6/issue) * (1 + 24/rob)
			feasible++
		}
		if got := fam.Evaluate(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("scalar point %v: family=%x reference=%x", p, math.Float64bits(got), math.Float64bits(want))
		}
		if got := batched[i]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("batched point %v: family=%x reference=%x", p, math.Float64bits(got), math.Float64bits(want))
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible point; the comparison is vacuous")
	}
}

// denseFamilySpace returns the family's grids subsampled to per values
// per dimension when they already hold at least floor designs, and
// otherwise an in-domain grid linearly spaced over each dimension's
// [Lo, Hi] at the resolution that reaches floor, so every family is
// compared over as many designs as the c2bound space at that per.
func denseFamilySpace(t *testing.T, m model.Model, per, floor int) Space {
	t.Helper()
	space, err := SpaceFor(m, per)
	if err != nil {
		t.Fatal(err)
	}
	if space.Size() >= floor {
		return space
	}
	ms := m.Space()
	dims := ms.Dims()
	// k is the per-dimension resolution that reaches the floor.
	k := int(math.Ceil(math.Pow(float64(floor), 1/float64(dims))))
	params := make([]Param, dims)
	for i, p := range ms.Params {
		n := max(len(p.Grid), k)
		vals := make([]float64, n)
		for j := range vals {
			vals[j] = p.Lo + (p.Hi-p.Lo)*float64(j)/float64(n-1)
		}
		params[i] = Param{Name: p.Name, Values: vals}
	}
	s, err := NewSpace(params...)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() < floor {
		t.Fatalf("%s: dense space has %d designs, want ≥ %d", m.Fingerprint(), s.Size(), floor)
	}
	return s
}

// TestFamilyBatchMatchesScalar is the per-family engine differential:
// over at least 4^6 designs per family, the batched path (compiled
// kernel, chunked dispatch) must be bit-identical to the scalar
// per-point path, and its first 4096 values to the per-request path
// (a freshly resolved model and one engine Evaluate call per point, the
// cost profile of a POST /v1/evaluate).
func TestFamilyBatchMatchesScalar(t *testing.T) {
	const per, perRequest = 4, 4096
	for _, name := range model.Names() {
		t.Run(name, func(t *testing.T) {
			m := familyModel(t, name)
			s := denseFamilySpace(t, m, per, per*per*per*per*per*per)
			points := make([][]float64, s.Size())
			for i := range points {
				points[i] = s.Point(i)
			}
			ctx := context.Background()
			run := func(ev fingerprinted) []float64 {
				eng := engine.New(engine.Options{Workers: 4})
				out := make([]float64, len(points))
				if err := eng.EvaluateBatch(ctx, ev, points, out); err != nil {
					t.Fatal(err)
				}
				return out
			}
			batched, scalar := run(NewFamilyEvaluator(m)), run(scalarOnly{NewFamilyEvaluator(m)})
			finite := 0
			for i := range batched {
				if math.Float64bits(batched[i]) != math.Float64bits(scalar[i]) {
					t.Fatalf("%s point %v: batched=%x scalar=%x", name, points[i], math.Float64bits(batched[i]), math.Float64bits(scalar[i]))
				}
				if !math.IsInf(batched[i], 0) && !math.IsNaN(batched[i]) {
					finite++
				}
			}
			if finite == 0 {
				t.Fatalf("%s: no feasible design; the comparison is vacuous", name)
			}

			eng := engine.New(engine.Options{Workers: 4})
			for i, p := range points[:min(perRequest, len(points))] {
				v, err := eng.Evaluate(ctx, NewFamilyEvaluator(familyModel(t, name)), p)
				if err != nil {
					t.Fatalf("%s per-request point %d: %v", name, i, err)
				}
				if math.Float64bits(v) != math.Float64bits(batched[i]) {
					t.Fatalf("%s point %v: batched=%x per-request=%x", name, p, math.Float64bits(batched[i]), math.Float64bits(v))
				}
			}
		})
	}
}

// TestFamilyWarmHitZeroAlloc asserts the warm memo probe stays
// allocation-free when the evaluator is a family model.
func TestFamilyWarmHitZeroAlloc(t *testing.T) {
	m := familyModel(t, model.FamilyGPU)
	eng := engine.New(engine.Options{Workers: 1})
	// Box the evaluator once; a per-call conversion would charge the
	// caller an allocation the engine is not making.
	var ev robust.Evaluator = NewFamilyEvaluator(m)
	point := []float64{8, 64, 0.5}
	ctx := context.Background()
	if _, err := eng.Evaluate(ctx, ev, point); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		o := eng.Do(ctx, ev, point)
		if !o.CacheHit {
			t.Fatal("expected a warm hit")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm family hit allocates %.1f objects/op, want 0", allocs)
	}
}

// TestFamilyCacheIsolation proves two families with identical parameter
// points never share memo entries: the fingerprint namespace forces two
// raw evaluations and two cache entries even for byte-identical points.
func TestFamilyCacheIsolation(t *testing.T) {
	// Two throwaway families whose spaces coincide on the same 1-dim
	// point but whose objectives differ.
	mkFamily := func(name string, scale float64) model.Model {
		return isoModel{name: name, scale: scale}
	}
	a, b := mkFamily("iso-a", 2), mkFamily("iso-b", 3)
	eng := engine.New(engine.Options{Workers: 1})
	ctx := context.Background()
	point := []float64{4}

	va, err := eng.Evaluate(ctx, NewFamilyEvaluator(a), point)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := eng.Evaluate(ctx, NewFamilyEvaluator(b), point)
	if err != nil {
		t.Fatal(err)
	}
	if va == vb {
		t.Fatalf("objectives coincide (%v); the test needs distinguishable families", va)
	}
	st := eng.Stats()
	if st.Evaluations != 2 {
		t.Fatalf("identical points across families shared an evaluation: %d raw evals, want 2", st.Evaluations)
	}
	if st.CacheHits != 0 {
		t.Fatalf("cross-family cache hit: %d", st.CacheHits)
	}
	// Same family, same point: now it must hit.
	if _, err := eng.Evaluate(ctx, NewFamilyEvaluator(a), point); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.CacheHits != 1 || st.Evaluations != 2 {
		t.Fatalf("same-family re-evaluation missed the cache: %+v", st)
	}

	// The real families' fingerprints are pairwise distinct for one
	// config, too.
	seen := map[string]string{}
	for _, name := range model.Names() {
		fp := familyModel(t, name).Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("families %s and %s share fingerprint %q", prev, name, fp)
		}
		seen[fp] = name
	}
}

// isoModel is a minimal synthetic family for the isolation test. Both
// instances evaluate t = scale·x over the same 1-dim space.
type isoModel struct {
	name  string
	scale float64
}

func (m isoModel) Fingerprint() string {
	return model.FingerprintPrefix(m.name) + "iso"
}

func (m isoModel) Space() model.Space {
	return model.Space{Params: []model.Param{{Name: "X", Lo: 0, Hi: 10, Grid: []float64{1, 2, 4}}}}
}

func (m isoModel) Compile() (model.Kernel, error) { return isoKernel(m), nil }

type isoKernel isoModel

func (k isoKernel) TimeAt(p []float64) float64 { return k.scale * p[0] }
func (k isoKernel) TimeWorkAt(p []float64) (float64, float64, bool) {
	return k.scale * p[0], 1, true
}
