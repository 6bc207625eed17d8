package engine

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/robust"
)

// flakyBatch is a batch evaluator whose first failN batch calls fail
// transiently; points counts every point handed to a batch call, failed
// attempts included.
type flakyBatch struct {
	quadEval
	failN  int64
	calls  atomic.Int64
	points atomic.Int64
}

func (f *flakyBatch) EvaluateBatch(ctx context.Context, pts [][]float64, out []float64) error {
	f.points.Add(int64(len(pts)))
	if f.calls.Add(1) <= f.failN {
		return errors.New("transient batch fault")
	}
	return f.quadEval.EvaluateBatch(ctx, pts, out)
}

// TestEvalSecondsCountsEveryAttempt pins DESIGN.md §12's accounting
// claim on both kinds of evaluator: under retries, the eval-seconds
// histogram observes one sample per raw evaluation, so its count equals
// Stats.Evaluations and the evaluator's own call count.
func TestEvalSecondsCountsEveryAttempt(t *testing.T) {
	retry := robust.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond}
	ctx := context.Background()

	t.Run("scalar", func(t *testing.T) {
		reg := obs.NewRegistry()
		e := New(Options{Workers: 1, Retry: retry, Metrics: reg})
		ev := &countingEval{fp: "eval-seconds/scalar"}
		ev.fn = func(p []float64) (float64, error) {
			if ev.calls.Load() < 3 {
				return math.NaN(), errors.New("transient")
			}
			return p[0], nil
		}
		o := e.Do(ctx, scalarOnly{ev}, []float64{7})
		if o.Err != nil || o.Attempts != 3 {
			t.Fatalf("outcome = %+v, want success on attempt 3", o)
		}
		checkEvalSeconds(t, reg, e.Stats(), uint64(ev.calls.Load()), 3)
	})

	t.Run("batch", func(t *testing.T) {
		reg := obs.NewRegistry()
		e := New(Options{Workers: 1, Retry: retry, Metrics: reg})
		ev := &flakyBatch{failN: 2}
		pts := testPlane(40)
		out := make([]float64, len(pts))
		if err := e.EvaluateBatch(ctx, ev, pts, out); err != nil {
			t.Fatal(err)
		}
		// The first chunk fails twice: its points are evaluated three times.
		chunk := uint64(chunkSize(len(pts), 1))
		checkEvalSeconds(t, reg, e.Stats(), uint64(ev.points.Load()), uint64(len(pts))+2*chunk)
	})
}

// checkEvalSeconds asserts histogram count = Stats.Evaluations = raw
// evaluator calls = want.
func checkEvalSeconds(t *testing.T, reg *obs.Registry, st Stats, raw, want uint64) {
	t.Helper()
	hist := reg.Histogram("engine_eval_seconds", obs.LatencyBuckets()).Count()
	if st.Evaluations != want || raw != want || hist != want {
		t.Fatalf("evaluations %d, raw calls %d, engine_eval_seconds count %d; want all %d",
			st.Evaluations, raw, hist, want)
	}
}

// errGateClosed is the refusal of a countingGate past its grant limit.
var errGateClosed = errors.New("gate closed")

// countingGate grants slots and counts acquires and releases; with a
// nonzero limit it refuses every acquire after limit grants.
type countingGate struct {
	mu       sync.Mutex
	limit    int
	acquires int
	releases int
}

func (g *countingGate) AcquireSlot(context.Context) (func(), error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.limit > 0 && g.acquires >= g.limit {
		return nil, errGateClosed
	}
	g.acquires++
	return func() {
		g.mu.Lock()
		g.releases++
		g.mu.Unlock()
	}, nil
}

func (g *countingGate) counts() (acquires, releases int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.acquires, g.releases
}

// TestGateSlotPerUnit pins the Gate contract of EvaluateStream: one slot
// per point for a scalar-only evaluator, one per chunk for a batch
// evaluator, and every slot released.
func TestGateSlotPerUnit(t *testing.T) {
	const n, workers = 1000, 4
	for _, tc := range []struct {
		name string
		ev   robust.Evaluator
		want int
	}{
		{"scalar", scalarOnly{&quadEval{}}, n},
		{"batch", &quadEval{}, (n + chunkSize(n, workers) - 1) / chunkSize(n, workers)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := &countingGate{}
			e := New(Options{Workers: workers, Gate: g})
			yields := 0
			if err := e.EvaluateStream(context.Background(), tc.ev, testPlane(n), func(int, Outcome) { yields++ }); err != nil {
				t.Fatal(err)
			}
			acq, rel := g.counts()
			if acq != tc.want || rel != acq || yields != n {
				t.Fatalf("acquires %d (want %d), releases %d, yields %d (want %d)", acq, tc.want, rel, yields, n)
			}
		})
	}
}

// TestGateRefusalEndsStream pins the failure half of the Gate contract:
// once the gate refuses, EvaluateStream returns, only the units granted
// a slot yield (each in full), every granted slot is released and no
// goroutine of the stream survives it.
func TestGateRefusalEndsStream(t *testing.T) {
	const n, workers, granted = 1000, 4, 5
	for _, tc := range []struct {
		name string
		ev   robust.Evaluator
		span int
	}{
		{"scalar", scalarOnly{&quadEval{}}, 1},
		{"batch", &quadEval{}, chunkSize(n, workers)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			g := &countingGate{limit: granted}
			e := New(Options{Workers: workers, Gate: g})
			perUnit := map[int]int{}
			err := e.EvaluateStream(context.Background(), tc.ev, testPlane(n), func(i int, o Outcome) {
				if o.Err != nil {
					t.Errorf("point %d: %v", i, o.Err)
				}
				perUnit[i/tc.span]++
			})
			if err != nil {
				t.Fatalf("EvaluateStream = %v, want nil (the context was never cancelled)", err)
			}
			if len(perUnit) != granted {
				t.Fatalf("%d units yielded, want the %d granted a slot", len(perUnit), granted)
			}
			for u, got := range perUnit {
				if want := min(tc.span, n-u*tc.span); got != want {
					t.Fatalf("unit %d yielded %d of its %d points", u, got, want)
				}
			}
			if acq, rel := g.counts(); acq != granted || rel != granted {
				t.Fatalf("acquires %d, releases %d, want %d each", acq, rel, granted)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines: %d before, %d after the refused stream", before, runtime.NumGoroutine())
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestDuplicatePointsCountAsRequests streams a plane in which every
// point appears twice within one chunk: the second copy waits on the
// first's in-flight computation. Both dispatch kinds must account it the
// same way, each copy one request.
func TestDuplicatePointsCountAsRequests(t *testing.T) {
	pts := append(testPlane(8), testPlane(8)...)
	var stats []Stats
	for _, ev := range []robust.Evaluator{scalarOnly{&quadEval{}}, &quadEval{}} {
		e := New(Options{Workers: 1})
		if err := e.EvaluateBatch(context.Background(), ev, pts, make([]float64, len(pts))); err != nil {
			t.Fatal(err)
		}
		stats = append(stats, e.Stats())
	}
	s, b := stats[0], stats[1]
	if s.Requests != uint64(len(pts)) || b.Requests != s.Requests ||
		b.CacheHits+b.Dedups != s.CacheHits+s.Dedups || b.CacheMisses != s.CacheMisses || b.Evaluations != s.Evaluations {
		t.Fatalf("accounting diverges over %d points:\nscalar %+v\nbatch  %+v", len(pts), s, b)
	}
}
