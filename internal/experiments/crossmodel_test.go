package experiments

import (
	"context"
	"math"
	"testing"

	"repro/internal/model"
)

// TestCrossModel checks the cross-model sweep's structure: one row per
// (application, family), finite positive optima, and the divergence
// column anchored at exactly 1 for c2bound itself.
func TestCrossModel(t *testing.T) {
	tb, rows, err := CrossModelCtx(context.Background(), Scale{SpacePer: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tb == nil {
		t.Fatal("nil table")
	}
	wantRows := 2 * len(model.Names())
	if len(rows) != wantRows {
		t.Fatalf("got %d rows, want %d (2 apps × %d families)", len(rows), wantRows, len(model.Names()))
	}
	for _, r := range rows {
		if !(r.BestTime > 0) || math.IsInf(r.BestTime, 1) {
			t.Errorf("%s/%s: best time %v not finite positive", r.App, r.Family, r.BestTime)
		}
		if !(r.Parallelism >= 1) {
			t.Errorf("%s/%s: parallelism %v < 1", r.App, r.Family, r.Parallelism)
		}
		if r.Family == model.FamilyC2Bound && r.ParVsC2Bound != 1 {
			t.Errorf("%s/c2bound: divergence %v, want exactly 1", r.App, r.ParVsC2Bound)
		}
		if math.IsNaN(r.ParVsC2Bound) || r.ParVsC2Bound <= 0 {
			t.Errorf("%s/%s: divergence %v not positive", r.App, r.Family, r.ParVsC2Bound)
		}
	}
}
