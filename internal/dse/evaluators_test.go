package dse

import (
	"context"
	"math"
	"testing"

	"repro/internal/chip"
)

func TestBestEdgeCases(t *testing.T) {
	// All-NaN: nothing selectable, Best reports "no result".
	if idx, _ := Best([]float64{math.NaN(), math.NaN(), math.NaN()}); idx != -1 {
		t.Fatalf("Best(all NaN) = %d, want -1", idx)
	}
	// -Inf is a legitimate (if degenerate) minimum and must win over any
	// finite value.
	vals := []float64{3, math.Inf(-1), 1}
	if idx, v := Best(vals); idx != 1 || !math.IsInf(v, -1) {
		t.Fatalf("Best with -Inf = %d (%v)", idx, v)
	}
	// Ties break deterministically to the lowest index, so concurrent
	// sweeps and resumed sweeps always report the same optimum.
	vals = []float64{5, 2, 2, 2}
	if idx, v := Best(vals); idx != 1 || v != 2 {
		t.Fatalf("tie broke to %d (%v), want lowest index 1", idx, v)
	}
	// NaN holes between finite entries are skipped, not propagated.
	vals = []float64{math.NaN(), 4, math.NaN(), 2}
	if idx, v := Best(vals); idx != 3 || v != 2 {
		t.Fatalf("Best over NaN holes = %d (%v)", idx, v)
	}
}

func TestSimEvaluatorFaultScoresNaN(t *testing.T) {
	// Regression: a simulator fault must score NaN, not +Inf. +Inf is the
	// legitimate "infeasible design" score; if faults also returned +Inf a
	// faulty-but-feasible configuration would be indistinguishable from a
	// design that doesn't fit — and Best must never pick either.
	ev, err := NewSimEvaluator(chip.DefaultConfig(), "stream", 1<<20, 2, 4000, 7)
	if err != nil {
		t.Fatalf("NewSimEvaluator: %v", err)
	}
	// Force a simulator fault on a feasible point: break the workload name
	// after construction so Config() succeeds but the run cannot.
	ev.Workload = "no-such-workload"
	good := []float64{4, 1, 4, 4, 4, 128}
	v, err := ev.EvaluateCtx(context.Background(), good)
	if err == nil {
		t.Fatal("faulted EvaluateCtx returned nil error")
	}
	if !math.IsNaN(v) {
		t.Fatalf("faulted evaluation scored %v, want NaN", v)
	}
	// The fault score can never be selected.
	if idx, _ := Best([]float64{v}); idx != -1 {
		t.Fatalf("Best selected a fault score (idx %d)", idx)
	}
	// Infeasible stays +Inf even on the broken evaluator: feasibility is
	// checked before the simulator runs.
	bad := []float64{40, 10, 40, 32, 4, 128}
	if v, err := ev.EvaluateCtx(context.Background(), bad); err != nil || !math.IsInf(v, 1) {
		t.Fatalf("infeasible point scored %v, %v; want +Inf, nil", v, err)
	}
}

func TestSplitRefs(t *testing.T) {
	cases := []struct {
		total, cores int
	}{
		{4000, 1}, {4000, 3}, {4000, 7}, {4001, 7}, {10, 32}, {0, 4}, {1, 1},
	}
	for _, c := range cases {
		refs := SplitRefs(c.total, c.cores)
		if len(refs) != c.cores {
			t.Fatalf("SplitRefs(%d,%d): %d entries", c.total, c.cores, len(refs))
		}
		sum, min, max := 0, refs[0], refs[0]
		for _, r := range refs {
			sum += r
			if r < min {
				min = r
			}
			if r > max {
				max = r
			}
		}
		// Total invariance: no remainder lost to truncating division.
		if sum != c.total {
			t.Fatalf("SplitRefs(%d,%d) sums to %d", c.total, c.cores, sum)
		}
		// Balance: the split never skews by more than one reference.
		if max-min > 1 {
			t.Fatalf("SplitRefs(%d,%d) unbalanced: min %d max %d", c.total, c.cores, min, max)
		}
	}
	// Degenerate inputs yield a zero-filled (or empty) slice, not a panic.
	if refs := SplitRefs(100, 0); len(refs) != 0 {
		t.Fatalf("cores=0 gave %v", refs)
	}
	refs := SplitRefs(-5, 3)
	for _, r := range refs {
		if r != 0 {
			t.Fatalf("negative total gave %v", refs)
		}
	}
}
