package server

import (
	"math"
	"sort"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/model"
)

// CatalogSchema is the current wire schema of model specs. Version 2
// adds the "family" selector and family parameters; specs without a
// schema field parse as version 1, whose fields and meaning are
// unchanged (family defaults to c2bound), so existing catalog JSON and
// clients keep working byte-for-byte.
const CatalogSchema = "catalog/2"

// ModelSpec selects a catalog application and optionally overrides
// individual application or chip parameters. A request is pure data —
// the server owns the model constructors — so the engine's
// fingerprint-keyed memo cache is shared across every client asking for
// the same effective model.
type ModelSpec struct {
	// Schema versions the spec ("catalog/2"). Empty means the original
	// catalog/1 wire format, which is a strict subset.
	Schema string `json:"schema,omitempty"`
	// App names a catalog profile: tmm, stencil, fft or fluidanimate.
	App string `json:"app"`
	// Family names the model family (catalog/2). Empty defaults to
	// "c2bound", the paper's objective, preserving catalog/1 semantics.
	Family string `json:"family,omitempty"`
	// Params carries family-specific parameters by key (catalog/2), for
	// example the gpu family's m_fma. Each key is validated against the
	// family's documented domain by the model registry.
	Params map[string]float64 `json:"params,omitempty"`
	// Overrides replaces application parameters by key (fseq, fmem,
	// overlap, ch, cm, pmr_ratio, pamp_ratio, ic0). Each key is validated
	// against the same domain App.Validate (and the paramdomain analyzer)
	// enforces before the model is built.
	Overrides map[string]float64 `json:"overrides,omitempty"`
	// Chip overrides chip parameters by key (total_area, fixed_area,
	// l1_density_kb, l2_density_kb, l1_hit_cycles, l2_hit_cycles,
	// mem_latency, mem_bandwidth, queue_sensitivity, pollack_k0,
	// pollack_phi0).
	Chip map[string]float64 `json:"chip,omitempty"`
}

// SpaceSpec describes the design space of a sweep or APS request: either
// the model family's declared space subsampled to Per values per
// dimension or an explicit parameter grid.
type SpaceSpec struct {
	// Per subsamples the model family's declared grids to this many
	// values per dimension (1..10); see dse.SpaceFor.
	Per int `json:"per,omitempty"`
	// Params is an explicit grid; mutually exclusive with Per.
	Params []ParamSpec `json:"params,omitempty"`
}

// ParamSpec is one explicit grid dimension.
type ParamSpec struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// EvaluatorSpec selects how design points are scored: the analytic
// C²-Bound model ("model", the default — microseconds per point) or the
// cycle-level simulator ("sim" — the expensive ground truth).
type EvaluatorSpec struct {
	Kind string `json:"kind,omitempty"`
	// Simulator parameters (kind "sim" only). Zero values select the
	// repository defaults.
	Workload  string  `json:"workload,omitempty"`
	WSBytes   uint64  `json:"ws_bytes,omitempty"`
	MeanGap   float64 `json:"mean_gap,omitempty"`
	TotalRefs int     `json:"total_refs,omitempty"`
	Seed      uint64  `json:"seed,omitempty"`
}

// paramDomain is one validated override range, inclusive on both ends.
// The table mirrors the domains App.Validate rejects and the paramdomain
// analyzer enforces statically for in-repo constants; requests are
// runtime data, so the same contract is applied here.
type paramDomain struct {
	lo, hi float64
	apply  func(*core.App, float64)
}

// appDomains maps override keys to their domain and setter.
var appDomains = map[string]paramDomain{
	"fseq":       {0, 1, func(a *core.App, v float64) { a.Fseq = v }},
	"fmem":       {0, 1, func(a *core.App, v float64) { a.Fmem = v }},
	"overlap":    {0, 1, func(a *core.App, v float64) { a.Overlap = v }},
	"ch":         {1, math.MaxFloat64, func(a *core.App, v float64) { a.CH = v }},
	"cm":         {1, math.MaxFloat64, func(a *core.App, v float64) { a.CM = v }},
	"pmr_ratio":  {0, 1, func(a *core.App, v float64) { a.PMRRatio = v }},
	"pamp_ratio": {0, math.MaxFloat64, func(a *core.App, v float64) { a.PAMPRatio = v }},
	"ic0":        {math.SmallestNonzeroFloat64, math.MaxFloat64, func(a *core.App, v float64) { a.IC0 = v }},
}

// chipDomain is one chip override range and setter.
type chipDomain struct {
	lo, hi float64
	apply  func(*chip.Config, float64)
}

// chipDomains maps chip override keys to their domain and setter. Every
// quantity is a positive physical parameter.
var chipDomains = map[string]chipDomain{
	"total_area":        {1e-6, math.MaxFloat64, func(c *chip.Config, v float64) { c.TotalArea = v }},
	"fixed_area":        {0, math.MaxFloat64, func(c *chip.Config, v float64) { c.FixedArea = v }},
	"l1_density_kb":     {1e-6, math.MaxFloat64, func(c *chip.Config, v float64) { c.L1DensityKB = v }},
	"l2_density_kb":     {1e-6, math.MaxFloat64, func(c *chip.Config, v float64) { c.L2DensityKB = v }},
	"l1_hit_cycles":     {0, math.MaxFloat64, func(c *chip.Config, v float64) { c.L1HitCycles = v }},
	"l2_hit_cycles":     {0, math.MaxFloat64, func(c *chip.Config, v float64) { c.L2HitCycles = v }},
	"mem_latency":       {0, math.MaxFloat64, func(c *chip.Config, v float64) { c.MemLatency = v }},
	"mem_bandwidth":     {1e-6, math.MaxFloat64, func(c *chip.Config, v float64) { c.MemBandwidth = v }},
	"queue_sensitivity": {0, math.MaxFloat64, func(c *chip.Config, v float64) { c.QueueSensitivity = v }},
	"pollack_k0":        {0, math.MaxFloat64, func(c *chip.Config, v float64) { c.Pollack.K0 = v }},
	"pollack_phi0":      {0, math.MaxFloat64, func(c *chip.Config, v float64) { c.Pollack.Phi0 = v }},
}

// Catalog is the server-side registry of named models: every request
// references an application by name instead of shipping model code, so
// two clients asking for the same configuration hash to the same engine
// fingerprint and share memoized evaluations.
type Catalog struct {
	chip chip.Config
	apps map[string]func() core.App
}

// DefaultCatalog returns the catalog of the paper's case-study profiles
// over the default chip.
func DefaultCatalog() *Catalog {
	return &Catalog{
		chip: chip.DefaultConfig(),
		apps: map[string]func() core.App{
			"tmm":          core.TMMApp,
			"stencil":      core.StencilApp,
			"fft":          core.FFTApp,
			"fluidanimate": core.FluidanimateApp,
		},
	}
}

// Names lists the registered applications, sorted.
func (c *Catalog) Names() []string {
	names := make([]string, 0, len(c.apps))
	//lint:allow detguard key collection feeds the sort below; the returned slice is order-independent of the iteration
	for name := range c.apps {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// resolveAppChip assembles the overridden application profile and chip
// configuration a spec describes, validating every override against its
// documented domain.
func (c *Catalog) resolveAppChip(spec ModelSpec) (core.App, chip.Config, error) {
	mk, ok := c.apps[spec.App]
	if !ok {
		return core.App{}, chip.Config{}, notFoundf("server: unknown application %q (have %v)", spec.App, c.Names())
	}
	app := mk()
	//lint:allow detguard each override targets its own profile field, so application order cannot change the assembled model
	for key, v := range spec.Overrides {
		d, ok := appDomains[key]
		if !ok {
			return core.App{}, chip.Config{}, validationf("server: unknown override %q", key)
		}
		if math.IsNaN(v) || v < d.lo || v > d.hi {
			return core.App{}, chip.Config{}, validationf("server: override %s=%v outside [%g, %g]", key, v, d.lo, d.hi)
		}
		d.apply(&app, v)
	}
	cfg := c.chip
	//lint:allow detguard each override targets its own chip field, so application order cannot change the assembled config
	for key, v := range spec.Chip {
		d, ok := chipDomains[key]
		if !ok {
			return core.App{}, chip.Config{}, validationf("server: unknown chip override %q", key)
		}
		if math.IsNaN(v) || v < d.lo || v > d.hi {
			return core.App{}, chip.Config{}, validationf("server: chip override %s=%v outside [%g, %g]", key, v, d.lo, d.hi)
		}
		d.apply(&cfg, v)
	}
	return app, cfg, nil
}

// checkSchema validates the spec's wire versioning: catalog/1 (the
// empty string) has no family fields; catalog/2 adds them.
func checkSchema(spec ModelSpec) error {
	switch spec.Schema {
	case "", "catalog/1", CatalogSchema:
	default:
		return validationf("server: unknown schema %q (want %q)", spec.Schema, CatalogSchema)
	}
	return nil
}

// FamilyName returns the effective family of a spec: the "family" field
// when present, c2bound otherwise (catalog/1 compatibility).
func FamilyName(spec ModelSpec) string {
	if spec.Family == "" {
		return model.FamilyC2Bound
	}
	return spec.Family
}

// ResolveModel builds the model-family instance a spec describes:
// every application and chip override is validated against its
// documented domain, then the named family is constructed through the
// model registry, which validates the family parameters against theirs.
// Absent family fields default to c2bound, so a catalog/1 spec resolves
// to the paper's objective.
func (c *Catalog) ResolveModel(spec ModelSpec) (model.Model, error) {
	if err := checkSchema(spec); err != nil {
		return nil, err
	}
	app, cfg, err := c.resolveAppChip(spec)
	if err != nil {
		return nil, err
	}
	m, err := model.New(FamilyName(spec), model.Config{Chip: cfg, App: app, Params: spec.Params})
	if err != nil {
		return nil, validationf("server: %v", err)
	}
	return m, nil
}

// Families lists the registered model families, sorted.
func (c *Catalog) Families() []string { return model.Names() }

// maxPer is the longest default grid of any built-in family. SpaceFor
// would silently clamp a larger Per to the full grid, so the catalog
// rejects it at the edge instead.
const maxPer = 10

// Space builds the design space a spec describes for the model, under
// one rule for every family: Per subsamples the family's declared grids
// to 1..maxPer values per dimension, Params is an explicit grid, and
// exactly one of the two is required.
func (c *Catalog) Space(m model.Model, spec SpaceSpec) (dse.Space, error) {
	switch {
	case spec.Per != 0 && len(spec.Params) > 0:
		return dse.Space{}, validationf("server: space spec carries both per and params; pick one")
	case len(spec.Params) > 0:
		params := make([]dse.Param, len(spec.Params))
		for i, p := range spec.Params {
			params[i] = dse.Param{Name: p.Name, Values: p.Values}
		}
		s, err := dse.NewSpace(params...)
		if err != nil {
			return dse.Space{}, validationf("server: %v", err)
		}
		return s, nil
	case spec.Per == 0:
		return dse.Space{}, validationf("server: space spec needs per or params")
	case spec.Per < 1 || spec.Per > maxPer:
		return dse.Space{}, validationf("server: space per=%d outside 1..%d", spec.Per, maxPer)
	default:
		s, err := dse.SpaceFor(m, spec.Per)
		if err != nil {
			return dse.Space{}, validationf("server: %v", err)
		}
		return s, nil
	}
}

// Evaluator builds the scoring evaluator a spec describes for the
// model: the family objective (kind "model", the default) or, for the
// c2bound family only, the simulator (kind "sim": its points are chip
// designs; other families' points are not).
func (c *Catalog) Evaluator(m model.Model, spec EvaluatorSpec) (dse.CtxEvaluator, error) {
	switch spec.Kind {
	case "", "model":
		return dse.NewFamilyEvaluator(m), nil
	case "sim":
		cb, ok := m.(*model.C2Bound)
		if !ok {
			return nil, validationf("server: evaluator kind \"sim\" needs the %s family (simulator points are chip designs)", model.FamilyC2Bound)
		}
		workload := spec.Workload
		if workload == "" {
			workload = "fluidanimate"
		}
		ws := spec.WSBytes
		if ws == 0 {
			ws = 1 << 22
		}
		gap := spec.MeanGap
		if gap <= 0 {
			gap = 2
		}
		refs := spec.TotalRefs
		if refs == 0 {
			refs = 20000
		}
		seed := spec.Seed
		if seed == 0 {
			seed = 17
		}
		ev, err := dse.NewSimEvaluator(cb.CoreModel().Chip, workload, ws, gap, refs, seed)
		if err != nil {
			return nil, validationf("server: %v", err)
		}
		return ev, nil
	default:
		return nil, validationf("server: unknown evaluator kind %q (want model or sim)", spec.Kind)
	}
}
