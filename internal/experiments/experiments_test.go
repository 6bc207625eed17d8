package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestFig1Demo(t *testing.T) {
	tb, p, err := Fig1Demo()
	if err != nil {
		t.Fatalf("Fig1Demo: %v", err)
	}
	if math.Abs(p.CAMAT()-1.6) > 1e-12 || math.Abs(p.AMAT()-3.8) > 1e-12 {
		t.Fatalf("worked example mismatch: %v", p)
	}
	if !strings.Contains(tb.String(), "C-AMAT") {
		t.Fatal("table missing C-AMAT row")
	}
}

func TestTable1G(t *testing.T) {
	tb := Table1G()
	s := tb.String()
	for _, want := range []string{"TMM", "Stencil", "FFT", "N^{3/2}"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table I missing %q:\n%s", want, s)
		}
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("Table I rows = %d", len(tb.Rows))
	}
}

func TestFig2Illustration(t *testing.T) {
	cases, err := Fig2Illustration(16, 4, 0.05, 0.4, 0.5, 6)
	if err != nil {
		t.Fatalf("Fig2Illustration: %v", err)
	}
	if len(cases) != 3 {
		t.Fatalf("cases = %d", len(cases))
	}
	// Time strictly shrinks with each added concurrency dimension.
	if !(cases[0].Time > cases[1].Time && cases[1].Time > cases[2].Time) {
		t.Fatalf("times not decreasing: %v %v %v", cases[0].Time, cases[1].Time, cases[2].Time)
	}
	if Fig2Table(cases) == nil {
		t.Fatal("nil table")
	}
	if _, err := Fig2Illustration(0, 4, 0, 0, 0, 0); err == nil {
		t.Fatal("bad n accepted")
	}
}

func TestFig7CoreAllocation(t *testing.T) {
	tb, allocs, err := Fig7CoreAllocation()
	if err != nil {
		t.Fatalf("Fig7CoreAllocation: %v", err)
	}
	if len(allocs) != 3 {
		t.Fatalf("allocations = %d", len(allocs))
	}
	// Paper ordering: app1 (seq-heavy, low C) ≪ app3 (middle) < app2.
	if !(allocs[0].Cores < allocs[2].Cores && allocs[2].Cores < allocs[1].Cores) {
		t.Fatalf("Fig. 7 ordering wrong: %d, %d, %d", allocs[0].Cores, allocs[1].Cores, allocs[2].Cores)
	}
	if len(tb.Rows) != 3 {
		t.Fatal("table rows != 3")
	}
}

func scalingByC(pts []ScalingPoint) map[float64]map[int]ScalingPoint {
	out := map[float64]map[int]ScalingPoint{}
	for _, p := range pts {
		if out[p.C] == nil {
			out[p.C] = map[int]ScalingPoint{}
		}
		out[p.C][p.N] = p
	}
	return out
}

func TestScalingShapes(t *testing.T) {
	_, pts3, err := Fig8()
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	_, pts9, err := Fig9()
	if err != nil {
		t.Fatalf("Fig9: %v", err)
	}
	by3 := scalingByC(pts3)
	by9 := scalingByC(pts9)

	// W follows g(N)·(1−fseq) + fseq, identical across C and fmem.
	for _, p := range pts3 {
		want := 0.01 + 0.99*math.Pow(float64(p.N), 1.5)
		if math.Abs(p.W-want) > 1e-6*want {
			t.Fatalf("W(N=%d) = %v, want %v", p.N, p.W, want)
		}
	}

	for _, c := range PaperConcurrencies() {
		for _, n := range ScalingNs() {
			// T grows with fmem (Fig. 8 vs Fig. 9).
			if by9[c][n].T <= by3[c][n].T {
				t.Fatalf("T(fmem=0.9) not above T(fmem=0.3) at N=%d C=%v", n, c)
			}
			// W/T decreases with fmem (Fig. 10 vs Fig. 11).
			if by9[c][n].WT >= by3[c][n].WT {
				t.Fatalf("W/T(fmem=0.9) not below at N=%d C=%v", n, c)
			}
		}
	}

	// Higher concurrency is never slower; at N=1000 the T(C=1)/T(C=8)
	// ratio is significant (the paper's "very significant" speedup).
	for _, by := range []map[float64]map[int]ScalingPoint{by3, by9} {
		for _, n := range ScalingNs() {
			if !(by[1][n].T >= by[4][n].T && by[4][n].T >= by[8][n].T) {
				t.Fatalf("T not decreasing in C at N=%d", n)
			}
		}
		ratio := by[1][1000].T / by[8][1000].T
		if ratio < 2 {
			t.Fatalf("T(C=1)/T(C=8) at N=1000 = %v, want ≥ 2", ratio)
		}
	}

	// Fig. 10 shape: the C=1 throughput curve flattens around ~100 cores
	// (beyond 100, W/T stays within a modest band), while C=8 keeps
	// improving well past it.
	flatteningBand := by3[1][1000].WT / by3[1][100].WT
	if flatteningBand > 1.6 || flatteningBand < 0.4 {
		t.Fatalf("C=1 throughput not flat beyond 100 cores: band %v", flatteningBand)
	}
	growth8 := by3[8][1000].WT / by3[8][100].WT
	if growth8 < 1.5 {
		t.Fatalf("C=8 throughput stalls too early: growth %v", growth8)
	}
	// Higher concurrency yields higher best throughput.
	best := func(by map[float64]map[int]ScalingPoint, c float64) float64 {
		m := 0.0
		for _, p := range by[c] {
			if p.WT > m {
				m = p.WT
			}
		}
		return m
	}
	if !(best(by3, 8) > best(by3, 4) && best(by3, 4) > best(by3, 1)) {
		t.Fatalf("best W/T not ordered by C: %v %v %v", best(by3, 1), best(by3, 4), best(by3, 8))
	}
}

func TestScalingValidation(t *testing.T) {
	if _, err := MemoryBoundedScaling(0, []float64{1}, []int{1}); err == nil {
		t.Error("fmem=0 accepted")
	}
	if _, err := MemoryBoundedScaling(0.3, nil, []int{1}); err == nil {
		t.Error("empty concurrency list accepted")
	}
}

func TestFig10And11Tables(t *testing.T) {
	tb10, _, err := Fig10()
	if err != nil {
		t.Fatalf("Fig10: %v", err)
	}
	tb11, _, err := Fig11()
	if err != nil {
		t.Fatalf("Fig11: %v", err)
	}
	for _, tb := range []string{tb10.String(), tb11.String()} {
		if !strings.Contains(tb, "W/T(C=8)") {
			t.Fatalf("missing throughput column:\n%s", tb)
		}
	}
}

func TestFig12SimulationCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	tb, d, err := Fig12SimulationCountsCtx(context.Background(), Scale{SpacePer: 3, TotalRefs: 2500})
	if err != nil {
		t.Fatalf("Fig12: %v", err)
	}
	if d.BruteForceSims != d.SpaceSize {
		t.Fatalf("brute force sims %d != space %d", d.BruteForceSims, d.SpaceSize)
	}
	// The Fig. 12 ordering: APS ≪ ANN < brute force.
	if !(d.APSSims < d.ANNSims && d.ANNSims < d.BruteForceSims) {
		t.Fatalf("simulation counts not ordered: APS=%d ANN=%d brute=%d",
			d.APSSims, d.ANNSims, d.BruteForceSims)
	}
	// Space reduction of at least two orders of magnitude on the reduced
	// space (the paper reports four on the full 10⁶ space).
	if float64(d.SpaceSize)/float64(d.APSSims) < 50 {
		t.Fatalf("space reduction too small: %d / %d", d.SpaceSize, d.APSSims)
	}
	// APS accuracy: within 25% of the true optimum on the reduced space.
	if d.APSRelErr < 0 || d.APSRelErr > 0.25 {
		t.Fatalf("APS error %v out of expected band", d.APSRelErr)
	}
	if !strings.Contains(tb.String(), "APS") {
		t.Fatal("table missing APS row")
	}
}

func TestFig13APC(t *testing.T) {
	tb, data, err := Fig13APC(Scale{TotalRefs: 4000, WSBytes: 8 << 20})
	if err != nil {
		t.Fatalf("Fig13: %v", err)
	}
	if len(data) != 5 {
		t.Fatalf("workloads = %d", len(data))
	}
	for w, apcs := range data {
		if !(apcs[0] > apcs[1] && apcs[1] > apcs[2]) {
			t.Fatalf("%s: APC not decreasing down the hierarchy: %v", w, apcs)
		}
		if apcs[2] <= 0 {
			t.Fatalf("%s: no DRAM APC", w)
		}
	}
	if len(tb.Rows) != 5 {
		t.Fatal("table rows != 5")
	}
}

func TestAblationRegimeSplit(t *testing.T) {
	tb, pts, err := AblationRegimeSplit(nil)
	if err != nil {
		t.Fatalf("AblationRegimeSplit: %v", err)
	}
	if len(pts) < 5 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		wantRegime := core.MinimizeTime
		if p.Exponent >= 1 {
			wantRegime = core.MaximizeThroughput
		}
		if p.Regime != wantRegime {
			t.Fatalf("b=%v: regime %v, want %v", p.Exponent, p.Regime, wantRegime)
		}
	}
	// Sub-linear scaling with small b settles on few cores; the
	// throughput regime picks far more.
	if pts[0].OptimalN >= pts[len(pts)-1].OptimalN {
		t.Fatalf("optimal N not growing across the regime split: %d vs %d",
			pts[0].OptimalN, pts[len(pts)-1].OptimalN)
	}
	if len(tb.Rows) != len(pts) {
		t.Fatal("table size mismatch")
	}
}

func TestAblationBaselines(t *testing.T) {
	tb, rows, err := AblationBaselines()
	if err != nil {
		t.Fatalf("AblationBaselines: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.OptimalN < 1 || r.Speedup <= 0 {
			t.Fatalf("degenerate comparison row: %+v", r)
		}
	}
	if !strings.Contains(tb.String(), "Hill-Marty") {
		t.Fatal("missing Hill-Marty row")
	}
}

func TestAblationConcurrencySensitivity(t *testing.T) {
	tb, err := AblationConcurrencySensitivity(nil)
	if err != nil {
		t.Fatalf("AblationConcurrencySensitivity: %v", err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}
