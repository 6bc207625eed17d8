package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestCrossValidate(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	tb, res, err := CrossValidate(context.Background(), Scale{TotalRefs: 3000}, 24)
	if err != nil {
		t.Fatalf("CrossValidate: %v", err)
	}
	if res.Samples < 10 {
		t.Fatalf("only %d samples", res.Samples)
	}
	// The analytic model must order designs broadly like the simulator:
	// this is the property APS's narrowing step relies on.
	if res.Spearman < 0.5 {
		t.Fatalf("Spearman rank correlation %v below 0.5 — model does not track simulator", res.Spearman)
	}
	// The analytic best should land near the top of the simulator's
	// ranking.
	if res.AnalyticTop > res.Samples/3 {
		t.Fatalf("analytic best ranks %d of %d by the simulator", res.AnalyticTop, res.Samples)
	}
	if !strings.Contains(tb.String(), "Spearman") {
		t.Fatal("table missing correlation row")
	}
}

func TestAsymmetricComparison(t *testing.T) {
	tb, err := AsymmetricComparison([]float64{0.1, 0.3})
	if err != nil {
		t.Fatalf("AsymmetricComparison: %v", err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// The gain column (last) must be ≥ 1 for nonzero fseq.
	for _, row := range tb.Rows {
		gain := row[len(row)-1]
		if gain == "" || gain[0] == '-' || gain[0] == '0' {
			t.Fatalf("asymmetric gain suspicious: %q", gain)
		}
	}
}

func TestEnergyPareto(t *testing.T) {
	tb, frontier, err := EnergyPareto()
	if err != nil {
		t.Fatalf("EnergyPareto: %v", err)
	}
	if len(frontier) < 2 {
		t.Fatalf("frontier size %d", len(frontier))
	}
	if !strings.Contains(tb.String(), "min-EDP") {
		t.Fatal("missing objective rows")
	}
}

func TestPrefetchAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	tb, data, err := PrefetchAblation(Scale{TotalRefs: 20000})
	if err != nil {
		t.Fatalf("PrefetchAblation: %v", err)
	}
	if data["stream"][0] <= 1.05 {
		t.Fatalf("prefetch speedup on stream = %v, want > 1.05", data["stream"][0])
	}
	// Random gains little either way.
	if data["random"][0] < 0.8 || data["random"][0] > 1.3 {
		t.Fatalf("random speedup = %v out of band", data["random"][0])
	}
	if len(tb.Rows) != 2 {
		t.Fatal("rows != 2")
	}
}

func TestPhaseAdaptation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	tb, res, err := PhaseAdaptation(Scale{TotalRefs: 6000})
	if err != nil {
		t.Fatalf("PhaseAdaptation: %v", err)
	}
	if res.Windows != 6 {
		t.Fatalf("windows = %d", res.Windows)
	}
	if res.PhaseChanges < 3 {
		t.Fatalf("phase changes = %d, want ≥ 3 (A→B, B→A plus the first window)", res.PhaseChanges)
	}
	if res.Reconfigs < 2 {
		t.Fatalf("reconfigurations = %d, want ≥ 2", res.Reconfigs)
	}
	// Adapting must not lose to the locked-in design, and should win.
	if res.Gain < 1 {
		t.Fatalf("adaptive schedule slower than static: gain %v", res.Gain)
	}
	if res.Gain < 1.02 {
		t.Fatalf("adaptation gain %v too small for strongly contrasting phases", res.Gain)
	}
	if len(tb.Rows) != 7 { // 6 windows + summary
		t.Fatalf("table rows = %d", len(tb.Rows))
	}
}

func TestCoScheduleInterference(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation in -short mode")
	}
	tb, res, err := CoScheduleInterference(Scale{TotalRefs: 8000})
	if err != nil {
		t.Fatalf("CoScheduleInterference: %v", err)
	}
	if res.Slowdown <= 1.02 {
		t.Fatalf("no measurable interference: slowdown %v", res.Slowdown)
	}
	if res.MixedCAMAT <= res.SoloCAMAT {
		t.Fatalf("C-AMAT did not degrade under co-run: %v vs %v", res.MixedCAMAT, res.SoloCAMAT)
	}
	if len(tb.Rows) != 3 {
		t.Fatal("rows != 3")
	}
}
