package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/dse"
	"repro/internal/robust"
)

// withFaultyEvaluators routes every resolved evaluator through a
// fault-injection harness for the duration of the test.
func withFaultyEvaluators(t *testing.T, pFail, pPanic float64, seed uint64) {
	t.Helper()
	prev := testWrapEvaluator
	testWrapEvaluator = func(ev dse.CtxEvaluator) dse.CtxEvaluator {
		f := robust.NewFaulty(ev, seed)
		f.PFail = pFail
		f.PPanic = pPanic
		return f
	}
	t.Cleanup(func() { testWrapEvaluator = prev })
}

// checkEnvelope asserts body is exactly the {"error":{code,message}}
// wire shape with both fields populated and no unknown siblings.
func checkEnvelope(t *testing.T, origin string, body []byte) ErrorBody {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var env errorEnvelope
	if err := dec.Decode(&env); err != nil {
		t.Fatalf("%s: error body is not the envelope: %v\nbody: %s", origin, err, body)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("%s: envelope misses code or message: %s", origin, body)
	}
	return env.Error
}

// TestErrorEnvelopeStableUnderFaults hammers the work endpoints with a
// misbehaving evaluator — transient failures and panics injected below
// the engine — and checks every failure response still matches the
// documented envelope with a stable code. The engine's retry layer may
// absorb some faults; whatever escapes must never surface as a bare
// string or a half-written body.
func TestErrorEnvelopeStableUnderFaults(t *testing.T) {
	// High enough that retries (3 attempts) still fail most calls.
	withFaultyEvaluators(t, 0.45, 0.45, 42)
	// CacheSize -1: a failing evaluator must not be memoized anyway, but
	// disabling the cache keeps every request on the fault path.
	_, ts := newTestServer(t, Options{Workers: 2, MaxConcurrent: 4, CacheSize: -1})
	points := testPoints(t, 8)
	client := &http.Client{}

	allowed := map[string]bool{
		CodeEvaluationFailed: true,
		CodeEvaluatorPanic:   true,
	}
	sawFailure := false

	// Single evaluations: every non-200 is an envelope.
	for i, pt := range points {
		resp := postJSON(t, client, ts.URL+"/v1/evaluate", EvaluateRequest{
			Model: ModelSpec{App: "tmm"}, Point: pt,
		})
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			continue
		}
		sawFailure = true
		e := checkEnvelope(t, "evaluate", body)
		if !allowed[e.Code] {
			t.Fatalf("evaluate %d: unexpected code %q (status %d)", i, e.Code, resp.StatusCode)
		}
		if resp.StatusCode >= 500 && e.Code != CodeEvaluatorPanic {
			t.Fatalf("evaluate %d: 5xx carries code %q", i, e.Code)
		}
	}

	// Batch: per-point failures are envelope-shaped error fields on the
	// NDJSON lines, and the summary still arrives.
	resp := postJSON(t, client, ts.URL+"/v1/evaluate:batch", BatchRequest{
		Model: ModelSpec{App: "tmm"}, Points: points,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, want 200 (failures ride the stream)", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines, summaries := 0, 0
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"done"`)) {
			summaries++
			continue
		}
		lines++
		var res BatchResult
		if err := json.Unmarshal(line, &res); err != nil {
			t.Fatalf("batch line %d unparseable: %v\n%s", lines, err, line)
		}
		if res.Error != nil {
			sawFailure = true
			if res.Error.Code == "" || res.Error.Message == "" {
				t.Fatalf("batch line %d error misses code or message: %s", lines, line)
			}
			if !allowed[res.Error.Code] {
				t.Fatalf("batch line %d: unexpected code %q", lines, res.Error.Code)
			}
		}
	}
	resp.Body.Close()
	if lines != len(points) || summaries != 1 {
		t.Fatalf("batch emitted %d result lines and %d summaries, want %d and 1", lines, summaries, len(points))
	}

	// Sweeps either fail before streaming (an envelope) or stream to a
	// terminal result frame whose embedded error, if any, carries the
	// same structured body.
	resp = postJSON(t, client, ts.URL+"/v1/sweep", SweepRequest{
		Model: ModelSpec{App: "tmm"}, Space: SpaceSpec{Per: 2},
	})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		checkEnvelope(t, "sweep", body)
	} else {
		sc = bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		var last string
		for sc.Scan() {
			if line := strings.TrimSpace(sc.Text()); line != "" {
				last = line
			}
		}
		resp.Body.Close()
		if last == "" {
			t.Fatalf("sweep stream ended empty")
		}
		var result SweepResult
		if err := json.Unmarshal([]byte(last), &result); err != nil {
			t.Fatalf("sweep terminal frame unparseable: %v\n%s", err, last)
		}
		if result.Type != "result" {
			t.Fatalf("sweep stream ended on a %q frame, want result", result.Type)
		}
		if result.Error != nil && (result.Error.Code == "" || result.Error.Message == "") {
			t.Fatalf("sweep result error misses code or message: %s", last)
		}
	}

	if !sawFailure {
		t.Fatalf("fault injection produced no failures; the test exercised nothing")
	}
}

// TestDecodeJSONRejectsTrailingData pins the one-document rule of request
// bodies: white space may follow the document, anything else is a
// validation error, a stray closing brace or bracket included.
func TestDecodeJSONRejectsTrailingData(t *testing.T) {
	cases := map[string]bool{
		`{"point":[1]}`:               true,
		"{\"point\":[1]}\n\t ":        true,
		`{"point":[1]} {"point":[2]}`: false,
		`{"point":[1]}}`:              false,
		`{"point":[1]}]`:              false,
		`{"point":[1]} x`:             false,
	}
	for body, ok := range cases {
		r, err := http.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var v struct {
			Point []float64 `json:"point"`
		}
		err = decodeJSON(r, &v)
		if ok && err != nil {
			t.Errorf("%q: %v", body, err)
		}
		if !ok && !isValidation(err) {
			t.Errorf("%q: got %v, want a validation error", body, err)
		}
	}
}
