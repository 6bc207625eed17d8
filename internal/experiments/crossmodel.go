package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/tablefmt"
)

// CrossModelRow is one (application, family) optimum from the
// cross-model comparison sweep.
type CrossModelRow struct {
	App    string `json:"app"`
	Family string `json:"family"`
	// BestPoint is the family's optimal design in its own space.
	BestPoint []float64 `json:"best_point"`
	// Design names the point ("A0=…, N=…").
	Design string `json:"design"`
	// Parallelism is the hardware parallelism at the optimum: the
	// core-count dimension (N or M), or SM·Lanes for the gpu family.
	Parallelism float64 `json:"parallelism"`
	// BestTime is the family's objective at its optimum (each family's
	// own time unit; comparable within a row's family, not across).
	BestTime float64 `json:"best_time"`
	// ParVsC2Bound is Parallelism divided by the c2bound optimum's
	// parallelism on the same application — the divergence column.
	ParVsC2Bound float64 `json:"par_vs_c2bound"`
}

// parallelismAt extracts the hardware-parallelism product of a design
// point: every dimension that counts execution units (cores N, split
// count M, SMs, FP32 lanes) multiplied together, so a 4-SM × 128-lane
// GPU reads as 512-wide just like a 512-core CMP.
func parallelismAt(s dse.Space, point []float64) float64 {
	par := 1.0
	found := false
	for i, p := range s.Params {
		switch p.Name {
		case "N", "M", "SM", "Lanes":
			par *= point[i]
			found = true
		}
	}
	if !found {
		return math.NaN()
	}
	return par
}

// CrossModelCtx sweeps every registered model family over the tmm and fft
// catalog applications and lines their optima up: each family's best
// design, the hardware parallelism it prescribes, and that parallelism
// relative to C²-Bound's choice on the same application. The divergence
// column is the point of the experiment — the extended-Amdahl families
// (commsync, sqrtm) place the optimum purely from the concurrency
// trade-off, while C²-Bound moves it with cache capacity too, so the
// ratio drifting from 1 marks exactly where capacity effects change the
// answer. All families share one memoizing engine; the family-qualified
// fingerprints keep their cache entries apart. Every family sweep stops
// promptly when ctx is done.
func CrossModelCtx(ctx context.Context, sc Scale) (*tablefmt.Table, []CrossModelRow, error) {
	per := sc.SpacePer
	if per <= 0 {
		per = 4
	}
	eng := engine.New(engine.Options{Workers: sc.Workers, CacheSize: sc.CacheSize})
	apps := []struct {
		name string
		app  core.App
	}{
		{"tmm", core.TMMApp()},
		{"fft", core.FFTApp()},
	}

	var rows []CrossModelRow
	for _, a := range apps {
		c2par := math.NaN()
		first := len(rows)
		for _, name := range model.Names() {
			m, err := model.New(name, model.Config{Chip: chip.DefaultConfig(), App: a.app})
			if err != nil {
				return nil, nil, fmt.Errorf("experiments: crossmodel %s/%s: %w", a.name, name, err)
			}
			space, err := dse.SpaceFor(m, per)
			if err != nil {
				return nil, nil, fmt.Errorf("experiments: crossmodel %s/%s: %w", a.name, name, err)
			}
			values, _, err := dse.SweepCtx(ctx, dse.NewFamilyEvaluator(m), space, nil,
				dse.SweepOptions{Engine: eng})
			if err != nil {
				return nil, nil, fmt.Errorf("experiments: crossmodel %s/%s sweep: %w", a.name, name, err)
			}
			best := -1
			for i, v := range values {
				if math.IsNaN(v) || math.IsInf(v, 1) {
					continue
				}
				if best < 0 || v < values[best] {
					best = i
				}
			}
			if best < 0 {
				return nil, nil, fmt.Errorf("experiments: crossmodel %s/%s: no feasible design", a.name, name)
			}
			pt := space.Point(best)
			parts := make([]string, len(pt))
			for i, p := range space.Params {
				parts[i] = fmt.Sprintf("%s=%.4g", p.Name, pt[i])
			}
			par := parallelismAt(space, pt)
			if name == model.FamilyC2Bound {
				c2par = par
			}
			rows = append(rows, CrossModelRow{
				App:         a.name,
				Family:      name,
				BestPoint:   pt,
				Design:      strings.Join(parts, " "),
				Parallelism: par,
				BestTime:    values[best],
			})
		}
		for i := first; i < len(rows); i++ {
			rows[i].ParVsC2Bound = rows[i].Parallelism / c2par
		}
	}

	tb := tablefmt.New("Cross-model comparison: each family's optimum vs C²-Bound's (tmm, fft)",
		"app", "family", "best design", "parallelism", "best T", "par ÷ c2bound")
	for _, r := range rows {
		tb.AddRow(r.App, r.Family, r.Design,
			tablefmt.Float(r.Parallelism), tablefmt.Float(r.BestTime), tablefmt.Float(r.ParVsC2Bound))
	}
	return tb, rows, nil
}
