package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	c2bound "repro"
)

// tinyScale keeps every workload's shape at a size that runs in about a
// second.
var tinyScale = scale{apsPer: 3, apsRefs: 2000, sweepPer: 4, servePer: 3, batchPoints: 64, singleRate: 200}

type declared struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func tinyConfig(seed uint64, trace bool) config {
	return config{seed: seed, seconds: time.Second, trace: trace, scale: tinyScale}
}

// printed runs a workload and returns its result line as printed.
func printed(t *testing.T, name string, cfg config) result {
	t.Helper()
	o, err := workloads[name](context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	res, err := buildResult(o, cfg.trace)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back result
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	return back
}

// TestSmokeEveryDeclaredMetric runs every workload of BENCHMARK.json at
// tiny size, untraced and traced, and checks that each declared metric
// is printed with its declared unit and that the gates pass.
func TestSmokeEveryDeclaredMetric(t *testing.T) {
	d := readDeclared(t)
	for _, w := range d.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json names workload %q, the benchmark has none", w.Name)
		}
		for _, trace := range []bool{false, true} {
			res := printed(t, w.Name, tinyConfig(3, trace))
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := d.EndToEnd
			if trace {
				want = d.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not printed", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s printed in %q, declared %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.Name, trace, m.Name, got.Value)
				case !trace && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
			}
		}
	}
}

// bitFlip returns its evaluator's values with the lowest mantissa bit
// flipped, forwarding the fingerprint and the batched path.
type bitFlip struct{ inner c2bound.CtxEvaluator }

func flip(v float64) float64 { return math.Float64frombits(math.Float64bits(v) ^ 1) }

func (b bitFlip) EvaluateCtx(ctx context.Context, p []float64) (float64, error) {
	v, err := b.inner.EvaluateCtx(ctx, p)
	return flip(v), err
}

func (b bitFlip) Fingerprint() string {
	if f, ok := b.inner.(interface{ Fingerprint() string }); ok {
		return f.Fingerprint()
	}
	return ""
}

func (b bitFlip) EvaluateBatch(ctx context.Context, pts [][]float64, out []float64) error {
	var err error
	if be, ok := b.inner.(c2bound.BatchEvaluator); ok {
		err = be.EvaluateBatch(ctx, pts, out)
	} else {
		for i, p := range pts {
			if out[i], err = b.inner.EvaluateCtx(ctx, p); err != nil {
				break
			}
		}
	}
	for i := range out {
		out[i] = flip(out[i])
	}
	return err
}

// TestBitFlipFailsGate proves each workload's correctness gate catches
// an evaluator that is wrong in a single bit.
func TestBitFlipFailsGate(t *testing.T) {
	for name := range workloads {
		cfg := tinyConfig(5, false)
		cfg.wrap = func(ev c2bound.CtxEvaluator) c2bound.CtxEvaluator { return bitFlip{ev} }
		if res := printed(t, name, cfg); res.Correct || res.Failed == 0 {
			t.Errorf("%s: a one-bit evaluator fault passed the gate (correct=%v failed=%d)", name, res.Correct, res.Failed)
		}
	}
}

// TestDeclaredMatchesCode keeps BENCHMARK.json and the metric tables in
// main.go in step, in order.
func TestDeclaredMatchesCode(t *testing.T) {
	d := readDeclared(t)
	check := func(kind string, code []metricSpec, decl []struct{ Name, Unit string }) {
		if len(code) != len(decl) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(code), len(decl))
			return
		}
		for i := range code {
			if code[i].name != decl[i].Name || code[i].unit != decl[i].Unit {
				t.Errorf("%s[%d]: code %s (%s), BENCHMARK.json %s (%s)", kind, i, code[i].name, code[i].unit, decl[i].Name, decl[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, d.EndToEnd)
	check("per_layer", perLayer, d.PerLayer)
}
