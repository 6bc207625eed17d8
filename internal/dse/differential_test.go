package dse

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/robust"
)

// The differential suite pins the central batched-evaluation invariant:
// the batch path must be indistinguishable from the scalar path — same
// bits, same cache accounting, same sweep optimum — across every catalog
// model, with and without injected faults.

func diffApps() []core.App {
	return []core.App{core.TMMApp(), core.StencilApp(), core.FFTApp(), core.FluidanimateApp()}
}

// fingerprinted is an evaluator the engine memoizes.
type fingerprinted interface {
	CtxEvaluator
	engine.Fingerprinter
}

// scalarOnly hides an evaluator's EvaluateBatch, so the engine dispatches
// it point by point: the scalar path is the reference the batched one is
// compared against.
type scalarOnly struct{ fingerprinted }

// runDiffSweep sweeps the whole space twice on one engine (cold pass then
// warm pass) and returns the final values plus the engine's stats. With
// scalar set the evaluator runs on the engine's scalar path.
func runDiffSweep(t *testing.T, ev fingerprinted, s Space, scalar bool, passes int) ([]float64, engine.Stats) {
	t.Helper()
	if scalar {
		ev = scalarOnly{ev}
	}
	eng := engine.New(engine.Options{
		Workers:   4,
		CacheSize: s.Size() + 16,
		Retry:     robust.RetryPolicy{MaxAttempts: 10},
	})
	var values []float64
	for p := 0; p < passes; p++ {
		var rep SweepReport
		var err error
		values, rep, err = SweepCtx(context.Background(), ev, s, nil, SweepOptions{Engine: eng})
		if err != nil {
			t.Fatalf("sweep (scalar=%v pass=%d): %v", scalar, p, err)
		}
		if len(rep.Failed) != 0 {
			t.Fatalf("sweep (scalar=%v pass=%d): %d points failed, first %+v",
				scalar, p, len(rep.Failed), rep.Failed[0])
		}
	}
	return values, eng.Stats()
}

// TestDifferentialBatchVsScalar runs the same sweep through the batched
// and the scalar engine paths for every catalog model and demands
// bit-identical values, identical cache accounting, and the same optimum.
func TestDifferentialBatchVsScalar(t *testing.T) {
	for _, app := range diffApps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			m := c2Model(t, app)
			s := c2Space(t, 4)
			// Fresh evaluators per path: the sync.Once-guarded compiled
			// kernel must agree with the scalar model on its own, not by
			// sharing state.
			batchVals, batchStats := runDiffSweep(t, NewFamilyEvaluator(m), s, false, 2)
			scalVals, scalStats := runDiffSweep(t, NewFamilyEvaluator(m), s, true, 2)

			if len(batchVals) != len(scalVals) {
				t.Fatalf("value lengths differ: %d vs %d", len(batchVals), len(scalVals))
			}
			for i := range batchVals {
				if math.Float64bits(batchVals[i]) != math.Float64bits(scalVals[i]) {
					t.Fatalf("index %d: batch %x (%v) != scalar %x (%v)",
						i, math.Float64bits(batchVals[i]), batchVals[i],
						math.Float64bits(scalVals[i]), scalVals[i])
				}
			}
			if batchStats.Requests != scalStats.Requests ||
				batchStats.Evaluations != scalStats.Evaluations ||
				batchStats.CacheHits != scalStats.CacheHits ||
				batchStats.CacheMisses != scalStats.CacheMisses {
				t.Fatalf("stats diverge: batch %+v scalar %+v", batchStats, scalStats)
			}
			n := uint64(s.Size())
			if batchStats.Evaluations != n || batchStats.CacheHits != n {
				t.Fatalf("want %d evaluations and %d warm hits, got %+v", n, n, batchStats)
			}
			bi, bv := Best(batchVals)
			si, sv := Best(scalVals)
			if bi != si || math.Float64bits(bv) != math.Float64bits(sv) {
				t.Fatalf("optima diverge: batch (%d, %v) scalar (%d, %v)", bi, bv, si, sv)
			}
		})
	}
}

// errTransient is the injected first-attempt failure.
var errTransient = errors.New("injected transient fault")

// faultInjector wraps a batch-capable evaluator and fails the first
// attempt for a deterministic ~20% of points, on both the scalar and the
// batched path, so the differential test exercises the retry machinery.
type faultInjector struct {
	inner *FamilyEvaluator

	mu   sync.Mutex
	seen map[uint64]bool // point key -> first attempt already failed
}

func newFaultInjector(m model.Model) *faultInjector {
	return &faultInjector{inner: NewFamilyEvaluator(m), seen: make(map[uint64]bool)}
}

// pointKey mixes the coordinates into a deterministic identity. A test
// space has far too few points for 64-bit collisions to matter.
func pointKey(point []float64) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range point {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	return h
}

// shouldFail marks ~20% of points as transiently faulty.
func shouldFail(key uint64) bool { return key%5 == 0 }

// failFirst reports whether this call is the point's first attempt on a
// faulty point (and records the attempt).
func (f *faultInjector) failFirst(point []float64) bool {
	key := pointKey(point)
	if !shouldFail(key) {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.seen[key] {
		return false
	}
	f.seen[key] = true
	return true
}

func (f *faultInjector) EvaluateCtx(ctx context.Context, point []float64) (float64, error) {
	if f.failFirst(point) {
		return math.NaN(), errTransient
	}
	return f.inner.EvaluateCtx(ctx, point)
}

func (f *faultInjector) EvaluateBatch(ctx context.Context, points [][]float64, out []float64) error {
	failed := false
	for _, p := range points {
		if f.failFirst(p) {
			failed = true
		}
	}
	if failed {
		return errTransient
	}
	return f.inner.EvaluateBatch(ctx, points, out)
}

func (f *faultInjector) Fingerprint() string {
	return "dse.faulty{" + f.inner.Fingerprint() + "}"
}

// TestDifferentialBatchVsScalarWithFaults repeats the differential check
// with ~20% of points failing their first attempt. Retry counts differ by
// construction (a batch retries its whole chunk), so only values and
// optima must match — and they must match the fault-free run too.
func TestDifferentialBatchVsScalarWithFaults(t *testing.T) {
	for _, app := range diffApps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			m := c2Model(t, app)
			s := c2Space(t, 3)
			cleanVals, _ := runDiffSweep(t, NewFamilyEvaluator(m), s, false, 1)
			batchVals, _ := runDiffSweep(t, newFaultInjector(m), s, false, 1)
			scalVals, _ := runDiffSweep(t, newFaultInjector(m), s, true, 1)

			faulty := 0
			for i := 0; i < s.Size(); i++ {
				if shouldFail(pointKey(s.Point(i))) {
					faulty++
				}
			}
			if faulty == 0 {
				t.Fatal("fault pattern never fired; the test is vacuous")
			}
			for i := range batchVals {
				bb, sb, cb := math.Float64bits(batchVals[i]), math.Float64bits(scalVals[i]), math.Float64bits(cleanVals[i])
				if bb != sb || bb != cb {
					t.Fatalf("index %d: batch %v scalar %v clean %v", i, batchVals[i], scalVals[i], cleanVals[i])
				}
			}
			bi, bv := Best(batchVals)
			ci, cv := Best(cleanVals)
			if bi != ci || math.Float64bits(bv) != math.Float64bits(cv) {
				t.Fatalf("faulty optimum (%d, %v) != clean optimum (%d, %v)", bi, bv, ci, cv)
			}
		})
	}
}
