// Package dse defines the design space of the paper's §IV experiment —
// six microarchitecture parameters (core area A0, L1 area A1, L2 slice
// area A2, core count N, issue width, ROB size) with ten candidate values
// each, a 10⁶-point space — together with enumeration, nearest-point
// snapping, slice extraction and a parallel brute-force sweep that serves
// as the ground truth APS and the ANN baseline are measured against.
package dse

import (
	"context"
	"fmt"
	"math"

	"repro/internal/robust"
)

// Param is one design-space dimension.
type Param struct {
	Name   string
	Values []float64
}

// Space is the Cartesian product of its parameters.
type Space struct {
	Params []Param
}

// NewSpace validates and builds a space: every parameter is named and
// has values, and the point count fits in an int.
func NewSpace(params ...Param) (Space, error) {
	if len(params) == 0 {
		return Space{}, fmt.Errorf("dse: empty space")
	}
	size := 1
	for _, p := range params {
		if p.Name == "" || len(p.Values) == 0 {
			return Space{}, fmt.Errorf("dse: parameter %q has no values", p.Name)
		}
		if size > math.MaxInt/len(p.Values) {
			return Space{}, fmt.Errorf("dse: space of %d parameters has more points than an int can index", len(params))
		}
		size *= len(p.Values)
	}
	return Space{Params: params}, nil
}

// Dims returns the number of dimensions.
func (s Space) Dims() int { return len(s.Params) }

// Size returns the total number of configurations.
func (s Space) Size() int {
	n := 1
	for _, p := range s.Params {
		n *= len(p.Values)
	}
	return n
}

// DimIndex returns the dimension position of a named parameter, or an
// error if absent.
func (s Space) DimIndex(name string) (int, error) {
	for i, p := range s.Params {
		if p.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("dse: no parameter %q", name)
}

// Coords decodes a flat index into per-dimension value indices
// (row-major: the last dimension varies fastest).
func (s Space) Coords(idx int) []int {
	coords := make([]int, len(s.Params))
	for d := len(s.Params) - 1; d >= 0; d-- {
		n := len(s.Params[d].Values)
		coords[d] = idx % n
		idx /= n
	}
	return coords
}

// Index encodes per-dimension value indices into a flat index.
func (s Space) Index(coords []int) int {
	idx := 0
	for d, c := range coords {
		idx = idx*len(s.Params[d].Values) + c
	}
	return idx
}

// Point returns the parameter values at a flat index.
func (s Space) Point(idx int) []float64 {
	coords := s.Coords(idx)
	point := make([]float64, len(coords))
	for d, c := range coords {
		point[d] = s.Params[d].Values[c]
	}
	return point
}

// AppendPoint appends the parameter values at a flat index to dst and
// returns the extended slice. It is Point without the per-point
// allocations: sweep planes build one flat slab and slice it, so a
// million-point plane costs one allocation instead of two million.
func (s Space) AppendPoint(dst []float64, idx int) []float64 {
	base := len(dst)
	for range s.Params {
		dst = append(dst, 0)
	}
	for d := len(s.Params) - 1; d >= 0; d-- {
		vals := s.Params[d].Values
		dst[base+d] = vals[idx%len(vals)]
		idx /= len(vals)
	}
	return dst
}

// PointAt returns the values for explicit coordinates.
func (s Space) PointAt(coords []int) []float64 {
	point := make([]float64, len(coords))
	for d, c := range coords {
		point[d] = s.Params[d].Values[c]
	}
	return point
}

// Nearest returns the value index in dimension dim closest to v.
func (s Space) Nearest(dim int, v float64) int {
	best := 0
	bestD := math.Inf(1)
	for i, val := range s.Params[dim].Values {
		if d := math.Abs(val - v); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// SliceIndices returns the flat indices of every configuration whose
// coordinates match `fixed` (a map from dimension to value index); the
// remaining dimensions enumerate freely.
func (s Space) SliceIndices(fixed map[int]int) []int {
	free := []int{}
	for d := range s.Params {
		if _, ok := fixed[d]; !ok {
			free = append(free, d)
		}
	}
	count := 1
	for _, d := range free {
		count *= len(s.Params[d].Values)
	}
	coords := make([]int, s.Dims())
	for d, c := range fixed {
		coords[d] = c
	}
	out := make([]int, 0, count)
	var rec func(k int)
	rec = func(k int) {
		if k == len(free) {
			out = append(out, s.Index(coords))
			return
		}
		d := free[k]
		for c := 0; c < len(s.Params[d].Values); c++ {
			coords[d] = c
			rec(k + 1)
		}
	}
	rec(0)
	return out
}

// Neighborhood returns the flat indices obtained by varying the listed
// dimensions within ±radius grid steps of center (clipped at the edges)
// while holding all other dimensions at the center coordinates. The
// center itself is included once.
func (s Space) Neighborhood(center []int, radius int, dims []int) []int {
	if radius < 0 {
		radius = 0
	}
	coords := append([]int(nil), center...)
	seen := map[int]bool{}
	out := []int{}
	var rec func(k int)
	rec = func(k int) {
		if k == len(dims) {
			idx := s.Index(coords)
			if !seen[idx] {
				seen[idx] = true
				out = append(out, idx)
			}
			return
		}
		d := dims[k]
		lo := center[d] - radius
		hi := center[d] + radius
		if lo < 0 {
			lo = 0
		}
		if hi >= len(s.Params[d].Values) {
			hi = len(s.Params[d].Values) - 1
		}
		for c := lo; c <= hi; c++ {
			coords[d] = c
			rec(k + 1)
		}
		coords[d] = center[d]
	}
	rec(0)
	return out
}

// Evaluator scores one configuration; smaller is better (execution time).
// Implementations must be safe for concurrent use by multiple goroutines.
type Evaluator interface {
	Evaluate(point []float64) float64
}

// EvaluatorFunc adapts a function to the Evaluator interface.
type EvaluatorFunc func(point []float64) float64

// Evaluate implements Evaluator.
func (f EvaluatorFunc) Evaluate(point []float64) float64 { return f(point) }

// Sweep evaluates every configuration with a worker pool and returns the
// value for each flat index. workers ≤ 0 selects GOMAXPROCS. Cancellation
// of ctx stops the sweep promptly, leaving unevaluated entries NaN; use
// SweepCtx for the full report (failures, retries, pending indices).
func Sweep(ctx context.Context, e Evaluator, s Space, workers int) []float64 {
	return SweepIndices(ctx, e, s, nil, workers)
}

// SweepIndices evaluates the listed flat indices (all of them when
// indices is nil) in parallel, returning a dense slice indexed by flat
// index with NaN for unevaluated entries (or every entry when indices is
// nil, in which case all are evaluated). Evaluator panics are isolated to
// their index (the entry stays NaN) instead of crashing the sweep.
func SweepIndices(ctx context.Context, e Evaluator, s Space, indices []int, workers int) []float64 {
	values, _, _ := SweepCtx(ctx, WithContext(e), s, indices, SweepOptions{
		Workers: workers,
		Retry:   robust.RetryPolicy{MaxAttempts: 1}, // plain evaluators are deterministic
	})
	return values
}

// Best returns the index and value of the smallest finite entry; idx is −1
// when none is finite.
func Best(values []float64) (int, float64) {
	best := -1
	bestV := math.Inf(1)
	for i, v := range values {
		if !math.IsNaN(v) && v < bestV {
			best, bestV = i, v
		}
	}
	return best, bestV
}
