package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dse"
	"repro/internal/model"
)

// postStatus POSTs body and returns the status with the raw response.
func postStatus(t *testing.T, url string, body interface{}) (int, []byte) {
	t.Helper()
	resp := postJSON(t, http.DefaultClient, url, body)
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp.StatusCode, data
}

// wantValidation asserts a 400 validation envelope whose message holds
// want.
func wantValidation(t *testing.T, name string, status int, body []byte, want string) {
	t.Helper()
	if status != http.StatusBadRequest {
		t.Fatalf("%s: status = %d, want 400 (body %s)", name, status, body)
	}
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("%s: error body %s: %v", name, body, err)
	}
	if env.Error.Code != CodeValidation || !strings.Contains(env.Error.Message, want) {
		t.Fatalf("%s: envelope %+v, want code %q and a message holding %q", name, env.Error, CodeValidation, want)
	}
}

// sameBest fails unless two answers name the same best design, bit for
// bit.
func sameBest(t *testing.T, name string, idxA, idxB int, ptA, ptB []float64, valA, valB *jsonFloat) {
	t.Helper()
	if idxA != idxB || len(ptA) != len(ptB) || (valA == nil) != (valB == nil) {
		t.Fatalf("%s: best %d %v %v vs %d %v %v", name, idxA, ptA, valA, idxB, ptB, valB)
	}
	for i := range ptA {
		if math.Float64bits(ptA[i]) != math.Float64bits(ptB[i]) {
			t.Fatalf("%s: best point %v vs %v", name, ptA, ptB)
		}
	}
	if valA != nil && math.Float64bits(float64(*valA)) != math.Float64bits(float64(*valB)) {
		t.Fatalf("%s: best value %v vs %v", name, *valA, *valB)
	}
}

// TestAPSResumeRequiresCheckpoint pins /v1/aps to /v1/sweep's rule:
// resume without a checkpoint name is a 400, for the analytic flow and
// the family grid scan alike.
func TestAPSResumeRequiresCheckpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, family := range []string{model.FamilyC2Bound, model.FamilyCommSync} {
		status, body := postStatus(t, ts.URL+"/v1/aps", APSRequest{
			Model:  ModelSpec{Schema: CatalogSchema, App: "tmm", Family: family},
			Space:  SpaceSpec{Per: 2},
			Resume: true,
		})
		wantValidation(t, family, status, body, "resume requires a checkpoint name")
	}
}

// TestAPSFamilySpaceRule pins the family branch of /v1/aps to
// Catalog.Space's one rule: an empty spec and per outside 1..10 are 400s
// (no silent full grid, no clamp), explicit params are accepted and
// score exactly like the per grid they spell out, and the time_per_work
// metric still needs the c2bound family.
func TestAPSFamilySpaceRule(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	spec := ModelSpec{Schema: CatalogSchema, App: "tmm", Family: model.FamilyCommSync}
	for _, tc := range []struct {
		name  string
		space SpaceSpec
		want  string
	}{
		{"empty", SpaceSpec{}, "needs per or params"},
		{"per=11", SpaceSpec{Per: 11}, "outside 1..10"},
		{"per=-1", SpaceSpec{Per: -1}, "outside 1..10"},
	} {
		status, body := postStatus(t, ts.URL+"/v1/aps", APSRequest{Model: spec, Space: tc.space})
		wantValidation(t, tc.name, status, body, tc.want)
	}
	status, body := postStatus(t, ts.URL+"/v1/aps", APSRequest{Model: spec, Space: SpaceSpec{Per: 4}, Metric: "time_per_work"})
	wantValidation(t, "time_per_work", status, body, "only the time metric")

	m, err := DefaultCatalog().ResolveModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := dse.SpaceFor(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	explicit := make([]ParamSpec, len(grid.Params))
	for i, p := range grid.Params {
		explicit[i] = ParamSpec{Name: p.Name, Values: p.Values}
	}
	var byPer, byParams APSResponse
	for _, run := range []struct {
		space SpaceSpec
		out   *APSResponse
	}{{SpaceSpec{Per: 4}, &byPer}, {SpaceSpec{Params: explicit}, &byParams}} {
		status, body := postStatus(t, ts.URL+"/v1/aps", APSRequest{Model: spec, Space: run.space})
		if status != http.StatusOK {
			t.Fatalf("space %+v: status = %d, body %s", run.space, status, body)
		}
		if err := json.Unmarshal(body, run.out); err != nil {
			t.Fatal(err)
		}
	}
	if byParams.SpaceSize != 16 || byParams.Analytic.Method != "grid" {
		t.Fatalf("explicit grid: space %d method %q, want 16 and grid", byParams.SpaceSize, byParams.Analytic.Method)
	}
	sameBest(t, "params vs per", byPer.BestIndex, byParams.BestIndex, byPer.BestPoint, byParams.BestPoint, byPer.BestValue, byParams.BestValue)
}

// TestAPSJobEveryFamily runs an APS job for every registered family and
// checks it returns the synchronous /v1/aps answer: the same analytic
// method, space size and best design, bit for bit. Family jobs used to
// be rejected at submit time.
func TestAPSJobEveryFamily(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, JobDir: t.TempDir()})
	for _, family := range model.Names() {
		req := APSRequest{
			Model: ModelSpec{Schema: CatalogSchema, App: "tmm", Family: family},
			Space: SpaceSpec{Per: 4},
		}
		status, body := postStatus(t, ts.URL+"/v1/aps", req)
		if status != http.StatusOK {
			t.Fatalf("%s: /v1/aps status = %d, body %s", family, status, body)
		}
		var sync APSResponse
		if err := json.Unmarshal(body, &sync); err != nil {
			t.Fatal(err)
		}

		j := submitJob(t, ts.URL, JobSubmitRequest{APS: &req})
		waitJobState(t, ts.URL, j.ID, JobSucceeded)
		var job APSJobResult
		if status := getJSON(t, ts.URL, "/v1/jobs/"+j.ID+"/result", "", &job); status != http.StatusOK {
			t.Fatalf("%s: job result status = %d", family, status)
		}
		if job.Analytic.Method != sync.Analytic.Method || job.SpaceSize != sync.SpaceSize ||
			job.AnalyticPoints != sync.AnalyticPoints || len(job.Snapped) != len(sync.Snapped) {
			t.Fatalf("%s: job %+v vs sync %+v", family, job, sync)
		}
		sameBest(t, family, job.BestIndex, sync.BestIndex, job.BestPoint, sync.BestPoint, job.BestValue, sync.BestValue)
	}
}

// resolverSeeds are the sweep and APS requests of the server tests, the
// fuzz corpus of FuzzResolveRequests.
func resolverSeeds() []interface{} {
	explicit := []ParamSpec{{Name: "x", Values: []float64{1, 2}}}
	return []interface{}{
		SweepRequest{Model: ModelSpec{App: "stencil"}, Space: SpaceSpec{Per: 2}, Checkpoint: "sweep.ck", IncludeValues: true, ProgressMS: 10},
		SweepRequest{Model: ModelSpec{Schema: CatalogSchema, App: "fft", Family: model.FamilyGPU}, Space: SpaceSpec{Per: 3}, IncludeValues: true},
		SweepRequest{Model: ModelSpec{Schema: CatalogSchema, App: "fft", Family: model.FamilyGPU}},
		SweepRequest{Model: ModelSpec{App: "tmm"}, Space: SpaceSpec{Per: 2, Params: explicit}},
		SweepRequest{Model: ModelSpec{App: "tmm", Overrides: map[string]float64{"fseq": 1.5}}, Space: SpaceSpec{Per: 2}},
		SweepRequest{Model: ModelSpec{App: "tmm"}, Space: SpaceSpec{Params: explicit}, Indices: []int{0, 1, 2}},
		SweepRequest{Model: ModelSpec{App: "tmm", Chip: map[string]float64{"total_area": 200}}, Space: SpaceSpec{Per: 10}, Resume: true},
		*jobSweepRequest().Sweep,
		APSRequest{Model: ModelSpec{App: "fft"}, Space: SpaceSpec{Per: 2}},
		APSRequest{Model: ModelSpec{Schema: CatalogSchema, App: "tmm", Family: model.FamilyCommSync}, Space: SpaceSpec{Per: 4}},
		APSRequest{Model: ModelSpec{Schema: CatalogSchema, App: "tmm", Family: model.FamilyCommSync}, Space: SpaceSpec{Per: 4}, Evaluator: EvaluatorSpec{Kind: "sim"}},
		APSRequest{Model: ModelSpec{Schema: CatalogSchema, App: "tmm", Family: model.FamilySqrtM}, Space: SpaceSpec{Per: 11}, Metric: "time_per_work"},
		APSRequest{Model: ModelSpec{App: "tmm"}, Space: SpaceSpec{Per: 2}, Radius: 1, Metric: "time_per_work", Checkpoint: "aps.ck", Resume: true},
	}
}

// FuzzResolveRequests decodes arbitrary bytes as a sweep and as an APS
// request, exactly as the routes do, and resolves them. Resolution must
// never panic, and an accepted request must carry every index inside its
// space, a space built from per in 1..10 or from explicit params, and
// (for APS) a resume only with a checkpoint.
func FuzzResolveRequests(f *testing.F) {
	for _, seed := range resolverSeeds() {
		data, err := json.Marshal(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	s := New(Options{Workers: 1})
	ctx := context.Background()
	decode := func(data []byte, v interface{}) error {
		return decodeJSON(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(data)), v)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sweep SweepRequest
		if decode(data, &sweep) == nil {
			if w, err := s.sweepWork(ctx, &sweep); err == nil {
				checkSpace(t, s, sweep.Model, sweep.Space, w.space)
				for _, idx := range sweep.Indices {
					if idx < 0 || idx >= w.space.Size() {
						t.Fatalf("accepted index %d outside %d points", idx, w.space.Size())
					}
				}
			}
		}
		var apsReq APSRequest
		if decode(data, &apsReq) == nil {
			if w, err := s.apsWork(ctx, &apsReq); err == nil {
				checkSpace(t, s, apsReq.Model, apsReq.Space, w.space)
				if w.opts.Resume && w.opts.CheckpointPath == "" {
					t.Fatalf("accepted resume without a checkpoint")
				}
			}
		}
	})
}

// checkSpace asserts a resolved space follows the one space rule.
func checkSpace(t *testing.T, s *Server, spec ModelSpec, sp SpaceSpec, space dse.Space) {
	t.Helper()
	if space.Size() < 1 {
		t.Fatalf("accepted a %d-point space", space.Size())
	}
	if len(sp.Params) > 0 {
		if sp.Per != 0 || space.Dims() != len(sp.Params) {
			t.Fatalf("explicit grid %+v resolved to %d dims (per %d)", sp.Params, space.Dims(), sp.Per)
		}
		return
	}
	if sp.Per < 1 || sp.Per > maxPer {
		t.Fatalf("accepted per=%d", sp.Per)
	}
	m, err := s.catalog.ResolveModel(spec)
	if err != nil {
		t.Fatalf("accepted model no longer resolves: %v", err)
	}
	want, err := dse.SpaceFor(m, sp.Per)
	if err != nil || want.Signature() != space.Signature() {
		t.Fatalf("per=%d space differs from the family grid (%v)", sp.Per, err)
	}
}
