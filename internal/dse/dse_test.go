package dse

import (
	"context"
	"math"
	"testing"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/model"
)

// c2Model builds the paper's c2bound objective for an application
// profile on the default chip.
func c2Model(t testing.TB, app core.App) model.Model {
	t.Helper()
	m, err := model.New(model.FamilyC2Bound, model.Config{Chip: chip.DefaultConfig(), App: app})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// c2Space returns the §IV space subsampled to per values per dimension
// (per ≤ 0: the full 10⁶-point grid).
func c2Space(t testing.TB, per int) Space {
	t.Helper()
	s, err := SpaceFor(c2Model(t, core.TMMApp()), per)
	if err != nil {
		t.Fatalf("SpaceFor: %v", err)
	}
	return s
}

func paperSpace(t *testing.T) Space { return c2Space(t, 0) }

func TestNewSpaceValidation(t *testing.T) {
	if _, err := NewSpace(); err == nil {
		t.Error("empty space accepted")
	}
	if _, err := NewSpace(Param{Name: "x"}); err == nil {
		t.Error("valueless parameter accepted")
	}
	if _, err := NewSpace(Param{Values: []float64{1}}); err == nil {
		t.Error("nameless parameter accepted")
	}
	// 2^62 points fit in an int; 2^63 and 2^64 would wrap Size to a
	// negative number and to zero.
	binary := func(dims int) []Param {
		ps := make([]Param, dims)
		for i := range ps {
			ps[i] = Param{Name: "b", Values: []float64{0, 1}}
		}
		return ps
	}
	if s, err := NewSpace(binary(62)...); err != nil || s.Size() != 1<<62 {
		t.Errorf("2^62-point space: size %d, err %v", s.Size(), err)
	}
	for _, dims := range []int{63, 64} {
		if _, err := NewSpace(binary(dims)...); err == nil {
			t.Errorf("2^%d-point space accepted", dims)
		}
	}
}

func TestPaperSpaceIsMillionPoints(t *testing.T) {
	s := paperSpace(t)
	if s.Size() != 1000000 {
		t.Fatalf("paper space size = %d, want 10^6", s.Size())
	}
	if s.Dims() != 6 {
		t.Fatalf("dims = %d", s.Dims())
	}
}

func TestPaperSpaceAllFeasible(t *testing.T) {
	// The ground-truth sweep must have no infeasible holes: check the
	// worst corner (max everything) and a sample of corners.
	s := paperSpace(t)
	cfg := chip.DefaultConfig()
	corners := []int{0, s.Size() - 1, s.Size() / 2, 999, 123456}
	for _, idx := range corners {
		p := s.Point(idx)
		d := chip.Design{N: int(p[3] + 0.5), CoreArea: p[0], L1Area: p[1], L2Area: p[2]}
		if err := cfg.CheckFeasible(d); err != nil {
			t.Fatalf("index %d infeasible: %v", idx, err)
		}
	}
	// Explicit worst case.
	var worst []int
	for _, prm := range s.Params {
		worst = append(worst, len(prm.Values)-1)
	}
	p := s.PointAt(worst)
	d := chip.Design{N: int(p[3] + 0.5), CoreArea: p[0], L1Area: p[1], L2Area: p[2]}
	if err := cfg.CheckFeasible(d); err != nil {
		t.Fatalf("max corner infeasible: %v", err)
	}
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	s := paperSpace(t)
	for _, idx := range []int{0, 1, 9, 10, 999999, 123456, 987654} {
		coords := s.Coords(idx)
		if got := s.Index(coords); got != idx {
			t.Fatalf("round trip %d → %v → %d", idx, coords, got)
		}
	}
}

func TestPointMatchesPointAt(t *testing.T) {
	s := paperSpace(t)
	idx := 424242
	p1 := s.Point(idx)
	p2 := s.PointAt(s.Coords(idx))
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("Point mismatch at dim %d", i)
		}
	}
}

func TestNearest(t *testing.T) {
	s, err := NewSpace(Param{Name: "x", Values: []float64{1, 2, 4, 8}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		v    float64
		want int
	}{{0, 0}, {1.4, 0}, {1.6, 1}, {3.5, 2}, {100, 3}}
	for _, c := range cases {
		if got := s.Nearest(0, c.v); got != c.want {
			t.Errorf("Nearest(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestDimIndex(t *testing.T) {
	s := paperSpace(t)
	for i, name := range []string{DimA0, DimA1, DimA2, DimN, DimIssue, DimROB} {
		got, err := s.DimIndex(name)
		if err != nil || got != i {
			t.Fatalf("DimIndex(%s) = %d, %v", name, got, err)
		}
	}
	if _, err := s.DimIndex("nope"); err == nil {
		t.Error("unknown dim accepted")
	}
}

func TestSliceIndices(t *testing.T) {
	s, _ := NewSpace(
		Param{Name: "a", Values: []float64{0, 1}},
		Param{Name: "b", Values: []float64{0, 1, 2}},
		Param{Name: "c", Values: []float64{0, 1}},
	)
	slice := s.SliceIndices(map[int]int{0: 1, 2: 0})
	if len(slice) != 3 {
		t.Fatalf("slice size = %d, want 3", len(slice))
	}
	for _, idx := range slice {
		coords := s.Coords(idx)
		if coords[0] != 1 || coords[2] != 0 {
			t.Fatalf("slice member %v violates fixed dims", coords)
		}
	}
}

func TestNeighborhood(t *testing.T) {
	s, _ := NewSpace(
		Param{Name: "a", Values: []float64{0, 1, 2, 3, 4}},
		Param{Name: "b", Values: []float64{0, 1, 2, 3, 4}},
	)
	center := []int{2, 2}
	nb := s.Neighborhood(center, 1, []int{0, 1})
	if len(nb) != 9 {
		t.Fatalf("radius-1 2-D neighborhood = %d points, want 9", len(nb))
	}
	// Edge clipping.
	nb = s.Neighborhood([]int{0, 0}, 1, []int{0, 1})
	if len(nb) != 4 {
		t.Fatalf("corner neighborhood = %d points, want 4", len(nb))
	}
	// Zero radius: only the center.
	nb = s.Neighborhood(center, 0, []int{0, 1})
	if len(nb) != 1 {
		t.Fatalf("radius-0 neighborhood = %d", len(nb))
	}
	// Negative radius treated as zero.
	nb = s.Neighborhood(center, -3, []int{0})
	if len(nb) != 1 {
		t.Fatalf("negative radius neighborhood = %d", len(nb))
	}
}

func TestSweepMatchesSequential(t *testing.T) {
	s, _ := NewSpace(
		Param{Name: "x", Values: []float64{1, 2, 3, 4, 5}},
		Param{Name: "y", Values: []float64{1, 2, 3, 4}},
	)
	eval := EvaluatorFunc(func(p []float64) float64 { return p[0]*10 + p[1] })
	par := Sweep(context.Background(), eval, s, 4)
	seq := Sweep(context.Background(), eval, s, 1)
	for i := range par {
		if par[i] != seq[i] {
			t.Fatalf("parallel/sequential mismatch at %d", i)
		}
	}
	idx, v := Best(par)
	if v != 11 || s.Point(idx)[0] != 1 || s.Point(idx)[1] != 1 {
		t.Fatalf("Best = %d (%v)", idx, v)
	}
}

func TestSweepIndicesPartial(t *testing.T) {
	s, _ := NewSpace(Param{Name: "x", Values: []float64{0, 1, 2, 3}})
	eval := EvaluatorFunc(func(p []float64) float64 { return p[0] })
	vals := SweepIndices(context.Background(), eval, s, []int{1, 3}, 2)
	if !math.IsNaN(vals[0]) || !math.IsNaN(vals[2]) {
		t.Fatal("unevaluated entries not NaN")
	}
	if vals[1] != 1 || vals[3] != 3 {
		t.Fatalf("evaluated entries wrong: %v", vals)
	}
	idx, v := Best(vals)
	if idx != 1 || v != 1 {
		t.Fatalf("Best over partial = %d, %v", idx, v)
	}
}

func TestBestEmptyAndInfinite(t *testing.T) {
	if idx, _ := Best(nil); idx != -1 {
		t.Fatal("Best(nil)")
	}
	if idx, _ := Best([]float64{math.Inf(1), math.NaN()}); idx != -1 {
		t.Fatal("Best with no finite entries")
	}
}

// TestReducedSpace checks the subsampled §IV space and SpaceFor's edge
// rule: per outside 1..9 keeps the full grid (callers that take per
// from users, the catalog and the CLIs, range-check it themselves).
func TestReducedSpace(t *testing.T) {
	s := c2Space(t, 3)
	if s.Size() != 729 {
		t.Fatalf("reduced size = %d, want 3^6", s.Size())
	}
	// Largest values preserved.
	full := paperSpace(t)
	for d := range s.Params {
		fv := full.Params[d].Values
		rv := s.Params[d].Values
		if rv[len(rv)-1] != fv[len(fv)-1] {
			t.Fatalf("dim %d: max value %v != full max %v", d, rv[len(rv)-1], fv[len(fv)-1])
		}
	}
	for _, per := range []int{-1, 0, 10, 11} {
		if got := c2Space(t, per).Size(); got != full.Size() {
			t.Errorf("per=%d: %d points, want the full %d", per, got, full.Size())
		}
	}
}

func TestSimEvaluatorFeasibility(t *testing.T) {
	ev, err := NewSimEvaluator(chip.DefaultConfig(), "stream", 1<<20, 2, 4000, 7)
	if err != nil {
		t.Fatalf("NewSimEvaluator: %v", err)
	}
	// Feasible point.
	good := []float64{4, 1, 4, 4, 4, 128}
	v := ev.Evaluate(good)
	if math.IsInf(v, 1) || v <= 0 {
		t.Fatalf("feasible point scored %v", v)
	}
	// Infeasible: 32 cores × huge areas.
	bad := []float64{40, 10, 40, 32, 4, 128}
	if !math.IsInf(ev.Evaluate(bad), 1) {
		t.Fatal("infeasible point not +Inf")
	}
	// Wrong dimension count.
	if !math.IsInf(ev.Evaluate([]float64{1, 2}), 1) {
		t.Fatal("short point not +Inf")
	}
	if _, err := NewSimEvaluator(chip.DefaultConfig(), "nope", 1<<20, 2, 4000, 7); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := NewSimEvaluator(chip.DefaultConfig(), "stream", 1<<20, 2, 0, 7); err == nil {
		t.Error("zero refs accepted")
	}
}

func TestSimEvaluatorPrefersCaches(t *testing.T) {
	// For an out-of-L1 working set, more L1 area at the same core count
	// must not hurt.
	ev, err := NewSimEvaluator(chip.DefaultConfig(), "fluidanimate", 1<<22, 2, 8000, 7)
	if err != nil {
		t.Fatalf("NewSimEvaluator: %v", err)
	}
	small := ev.Evaluate([]float64{4, 0.25, 4, 4, 4, 128})
	large := ev.Evaluate([]float64{4, 4, 4, 4, 4, 128})
	if large > small {
		t.Fatalf("4 mm² L1 (%v cycles) slower than 0.25 mm² (%v)", large, small)
	}
}

func TestSimEvaluatorDeterministic(t *testing.T) {
	ev, err := NewSimEvaluator(chip.DefaultConfig(), "stencil", 1<<20, 2, 4000, 7)
	if err != nil {
		t.Fatalf("NewSimEvaluator: %v", err)
	}
	p := []float64{4, 1, 4, 2, 4, 128}
	if a, b := ev.Evaluate(p), ev.Evaluate(p); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestModelEvaluator(t *testing.T) {
	ev := NewFamilyEvaluator(c2Model(t, core.FluidanimateApp()))
	good := ev.Evaluate([]float64{4, 1, 4, 8, 4, 128})
	if math.IsInf(good, 1) {
		t.Fatal("feasible point infinite")
	}
	// Wider issue and bigger ROB improve the corrected time.
	better := ev.Evaluate([]float64{4, 1, 4, 8, 8, 256})
	if better >= good {
		t.Fatalf("wider core not faster: %v vs %v", better, good)
	}
	if !math.IsInf(ev.Evaluate([]float64{400, 1, 4, 8, 4, 128}), 1) {
		t.Fatal("infeasible point not +Inf")
	}
	if !math.IsInf(ev.Evaluate([]float64{1}), 1) {
		t.Fatal("short point not +Inf")
	}
}
