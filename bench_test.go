// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each benchmark
// produces the figure's data series through internal/experiments — the
// same code cmd/figures prints — and reports the figure's headline
// quantity as a custom metric so `go test -bench` output doubles as the
// reproduction record.
package c2bound_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/tablefmt"
)

// BenchmarkFig1CAMATDemo (E1) reproduces the §II-A worked example:
// AMAT = 3.8 and C-AMAT = 1.6 on the five-access Fig. 1 trace.
func BenchmarkFig1CAMATDemo(b *testing.B) {
	var camat float64
	for i := 0; i < b.N; i++ {
		_, p, err := experiments.Fig1Demo()
		if err != nil {
			b.Fatal(err)
		}
		camat = p.CAMAT()
	}
	b.ReportMetric(camat, "C-AMAT")
}

// BenchmarkTable1GFactors (E2) regenerates Table I's g(N) factors.
func BenchmarkTable1GFactors(b *testing.B) {
	var g4 float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1G()
		if len(rows.Rows) != 4 {
			b.Fatal("Table I shape")
		}
	}
	g4 = 8 // TMM g(4) = 4^1.5
	b.ReportMetric(g4, "TMM-g(4)")
}

// BenchmarkFig2ConcurrencyIllustration (E3) quantifies the Fig. 2
// work/time picture.
func BenchmarkFig2ConcurrencyIllustration(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		cases, err := experiments.Fig2Illustration(16, 4, 0.05, 0.4, 0.5, 6)
		if err != nil {
			b.Fatal(err)
		}
		speedup = cases[0].Time / cases[2].Time
	}
	b.ReportMetric(speedup, "speedup(p=16,C=4)")
}

// BenchmarkFig7CoreAllocation (E4) runs the multi-application core
// allocation case study.
func BenchmarkFig7CoreAllocation(b *testing.B) {
	var parCores float64
	for i := 0; i < b.N; i++ {
		_, allocs, err := experiments.Fig7CoreAllocation()
		if err != nil {
			b.Fatal(err)
		}
		parCores = float64(allocs[1].Cores)
	}
	b.ReportMetric(parCores, "cores(par-concurrent)")
}

// BenchmarkFig8ScalingFmem03 (E5) generates the W and T series at
// fmem = 0.3 and reports the N=1000 concurrency speedup T(C=1)/T(C=8).
func BenchmarkFig8ScalingFmem03(b *testing.B) {
	b.ReportMetric(scalingRatio(b, experiments.Fig8), "T(C=1)/T(C=8)@N=1000")
}

// BenchmarkFig9ScalingFmem09 (E6) is the fmem = 0.9 counterpart.
func BenchmarkFig9ScalingFmem09(b *testing.B) {
	b.ReportMetric(scalingRatio(b, experiments.Fig9), "T(C=1)/T(C=8)@N=1000")
}

func scalingRatio(b *testing.B, fig func() (*tablefmt.Table, []experiments.ScalingPoint, error)) float64 {
	b.Helper()
	var ratio float64
	for i := 0; i < b.N; i++ {
		_, pts, err := fig()
		if err != nil {
			b.Fatal(err)
		}
		var t1, t8 float64
		for _, p := range pts {
			if p.N == 1000 && p.C == 1 {
				t1 = p.T
			}
			if p.N == 1000 && p.C == 8 {
				t8 = p.T
			}
		}
		ratio = t1 / t8
	}
	return ratio
}

// BenchmarkFig10ThroughputFmem03 (E7) generates the W/T series at
// fmem = 0.3 and reports the core count of the C=1 throughput knee.
func BenchmarkFig10ThroughputFmem03(b *testing.B) {
	b.ReportMetric(throughputKnee(b, experiments.Fig10), "kneeN(C=1)")
}

// BenchmarkFig11ThroughputFmem09 (E8) is the fmem = 0.9 counterpart.
func BenchmarkFig11ThroughputFmem09(b *testing.B) {
	b.ReportMetric(throughputKnee(b, experiments.Fig11), "kneeN(C=1)")
}

func throughputKnee(b *testing.B, fig func() (*tablefmt.Table, []experiments.ScalingPoint, error)) float64 {
	b.Helper()
	var knee float64
	for i := 0; i < b.N; i++ {
		_, pts, err := fig()
		if err != nil {
			b.Fatal(err)
		}
		// Knee: the smallest N reaching ≥ 80% of the C=1 series maximum.
		var maxWT float64
		for _, p := range pts {
			if p.C == 1 && p.WT > maxWT {
				maxWT = p.WT
			}
		}
		knee = 0
		for _, p := range pts {
			if p.C == 1 && p.WT >= 0.8*maxWT {
				knee = float64(p.N)
				break
			}
		}
	}
	return knee
}

// BenchmarkFig12SimulationCounts (E9) runs the full §IV DSE comparison:
// brute-force sweep vs ANN vs APS on the reduced space, reporting each
// method's simulation count. This is the heavyweight benchmark of the
// suite (hundreds of simulator runs per iteration).
func BenchmarkFig12SimulationCounts(b *testing.B) {
	var d experiments.Fig12Data
	for i := 0; i < b.N; i++ {
		var err error
		_, d, err = experiments.Fig12SimulationCountsCtx(context.Background(), experiments.Scale{SpacePer: 3, TotalRefs: 2500})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.BruteForceSims), "sims-brute")
	b.ReportMetric(float64(d.ANNSims), "sims-ANN")
	b.ReportMetric(float64(d.APSSims), "sims-APS")
	b.ReportMetric(d.APSRelErr, "APS-rel-err")
}

// BenchmarkFig13APCPerLayer (E10) measures APC at each hierarchy level on
// the simulator and reports the on-chip/off-chip gap for tiledmm.
func BenchmarkFig13APCPerLayer(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		_, data, err := experiments.Fig13APC(experiments.Scale{TotalRefs: 4000})
		if err != nil {
			b.Fatal(err)
		}
		apcs := data["tiledmm"]
		gap = apcs[0] / apcs[2]
	}
	b.ReportMetric(gap, "APC-L1/APC-mem")
}

// BenchmarkAPSAccuracy (E11) isolates the §IV accuracy claims: APS's
// relative error vs the full sweep (paper: 5.96%) and its share of the
// ANN baseline's simulation budget (paper: 16.3%).
func BenchmarkAPSAccuracy(b *testing.B) {
	var d experiments.Fig12Data
	for i := 0; i < b.N; i++ {
		var err error
		_, d, err = experiments.APSAccuracy(context.Background(), experiments.Scale{SpacePer: 3, TotalRefs: 2500})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(d.APSRelErr, "rel-err")
	b.ReportMetric(d.APSShareOfANN, "share-of-ANN")
}

// BenchmarkAblationRegimeSplit (E12) sweeps the g(N) exponent across the
// §III-C boundary and reports the optimal core count on each side.
func BenchmarkAblationRegimeSplit(b *testing.B) {
	var loN, hiN float64
	for i := 0; i < b.N; i++ {
		_, pts, err := experiments.AblationRegimeSplit(nil)
		if err != nil {
			b.Fatal(err)
		}
		loN = float64(pts[0].OptimalN)
		hiN = float64(pts[len(pts)-1].OptimalN)
	}
	b.ReportMetric(loN, "optN(b=0)")
	b.ReportMetric(hiN, "optN(b=2)")
}

// BenchmarkAblationBaselines (E13) contrasts C²-Bound's recommended
// design with Hill-Marty, Sun-Chen and Cassidy-Andreou.
func BenchmarkAblationBaselines(b *testing.B) {
	var c2N float64
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.AblationBaselines()
		if err != nil {
			b.Fatal(err)
		}
		c2N = float64(rows[0].OptimalN)
	}
	b.ReportMetric(c2N, "optN(C2-Bound)")
}

// BenchmarkExtensionAsymmetric (§VII) compares the best symmetric and
// asymmetric designs, reporting the asymmetric gain at f_seq = 0.3.
func BenchmarkExtensionAsymmetric(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		tb, err := experiments.AsymmetricComparison([]float64{0.3})
		if err != nil {
			b.Fatal(err)
		}
		row := tb.Rows[0]
		if _, err := fmt.Sscanf(row[len(row)-1], "%g", &gain); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(gain, "asym-gain(fseq=0.3)")
}

// BenchmarkExtensionEnergyPareto (§VII) builds the time/energy frontier.
func BenchmarkExtensionEnergyPareto(b *testing.B) {
	var points float64
	for i := 0; i < b.N; i++ {
		_, frontier, err := experiments.EnergyPareto()
		if err != nil {
			b.Fatal(err)
		}
		points = float64(len(frontier))
	}
	b.ReportMetric(points, "frontier-points")
}

// BenchmarkCrossValidation measures the analytic model's rank agreement
// with the simulator (the property APS relies on).
func BenchmarkCrossValidation(b *testing.B) {
	var rho float64
	for i := 0; i < b.N; i++ {
		_, res, err := experiments.CrossValidate(context.Background(), experiments.Scale{TotalRefs: 3000}, 24)
		if err != nil {
			b.Fatal(err)
		}
		rho = res.Spearman
	}
	b.ReportMetric(rho, "spearman")
}

// BenchmarkPrefetchAblation measures the next-line prefetcher's effect.
func BenchmarkPrefetchAblation(b *testing.B) {
	var speed float64
	for i := 0; i < b.N; i++ {
		_, data, err := experiments.PrefetchAblation(experiments.Scale{TotalRefs: 20000})
		if err != nil {
			b.Fatal(err)
		}
		speed = data["stream"][0]
	}
	b.ReportMetric(speed, "stream-speedup")
}

// BenchmarkOnlineAdaptation runs the phase-adaptation experiment and
// reports the adaptive-over-static gain.
func BenchmarkOnlineAdaptation(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		_, res, err := experiments.PhaseAdaptation(experiments.Scale{TotalRefs: 6000})
		if err != nil {
			b.Fatal(err)
		}
		gain = res.Gain
	}
	b.ReportMetric(gain, "adaptive-gain")
}

// BenchmarkInterference measures co-scheduling interference on the
// simulator: the victim's slowdown when sharing L2/DRAM with an
// aggressor.
func BenchmarkInterference(b *testing.B) {
	var slowdown float64
	for i := 0; i < b.N; i++ {
		_, res, err := experiments.CoScheduleInterference(experiments.Scale{TotalRefs: 8000})
		if err != nil {
			b.Fatal(err)
		}
		slowdown = res.Slowdown
	}
	b.ReportMetric(slowdown, "victim-slowdown")
}
