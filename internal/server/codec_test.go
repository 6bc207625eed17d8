package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dse"
	"repro/internal/engine"
)

// encoderLine is the reference encoding of one result line: what
// json.Encoder writes for v.
func encoderLine(t testing.TB, v interface{}) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("json.Encoder: %v", err)
	}
	return buf.Bytes()
}

// refBatchResult builds the BatchResult a batch line carries for
// outcome o of point i.
func refBatchResult(i int, o engine.Outcome) BatchResult {
	r := BatchResult{Index: i, CacheHit: o.CacheHit, Shared: o.Shared, Attempts: o.Attempts}
	if o.Err != nil {
		_, body := classify(o.Err)
		r.Error = &body
	} else {
		v := jsonFloat(o.Value)
		r.Value = &v
	}
	return r
}

// refPeerResult builds the PeerEvalResult a peer-eval line carries for
// outcome o of point i, with the bits formatted independently of
// cluster.FormatBits.
func refPeerResult(i int, o engine.Outcome) cluster.PeerEvalResult {
	r := cluster.PeerEvalResult{Index: i, CacheHit: o.CacheHit || o.Shared}
	if o.Err != nil {
		r.Error = o.Err.Error()
	} else {
		r.Bits = fmt.Sprintf("%016x", math.Float64bits(o.Value))
	}
	return r
}

func FuzzBatchLineEncode(f *testing.F) {
	for _, bits := range []uint64{
		math.Float64bits(1.5),
		0x7ff8000000000001, // NaN
		math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)),
		1 << 63,                     // −0
		1,                           // the smallest subnormal
		0x000fffffffffffff,          // the largest subnormal
		math.Float64bits(1e21),      // the first 'g' exponent form
		math.Float64bits(123456789), // a large integer
	} {
		f.Add(7, bits, false, false, 0, "")
		f.Add(0, bits, true, true, 3, "")
	}
	f.Add(-1, uint64(0), false, true, 1, `evaluator failed: <a href="x">&amp;</a> "quoted"`)
	f.Add(1023, uint64(0), true, false, -2, "bad utf-8: \xff\xfe  ")
	f.Fuzz(func(t *testing.T, index int, bits uint64, hit, shared bool, attempts int, msg string) {
		o := engine.Outcome{Value: math.Float64frombits(bits), CacheHit: hit, Shared: shared, Attempts: attempts}
		if msg != "" {
			o.Err = errors.New(msg)
		}
		r := refBatchResult(index, o)
		if got, want := appendBatchLine(nil, index, o), encoderLine(t, r); !bytes.Equal(got, want) {
			t.Fatalf("batch line\n got %s\nwant %s", got, want)
		}
		peer := cluster.AppendPeerEvalResult(nil, index, o.Value, o.CacheHit || o.Shared, o.Err)
		if got, want := peer, encoderLine(t, refPeerResult(index, o)); !bytes.Equal(got, want) {
			t.Fatalf("peer line\n got %s\nwant %s", got, want)
		}
	})
}

// hasNullCoordinate reports whether data decodes into points of which
// one has a null coordinate.
func hasNullCoordinate(data []byte) bool {
	var pts [][]*float64
	if json.Unmarshal(data, &pts) != nil {
		return false
	}
	for _, p := range pts {
		if slices.Contains(p, nil) {
			return true
		}
	}
	return false
}

func FuzzBatchPointsDecode(f *testing.F) {
	for _, seed := range []string{
		`[[4.725,2.025,4.275,3,16,256]]`,
		` [ [ 1 , 2 ] ,[3e-2,-0] ] `,
		`[[-0,5e-324,2.2250738585072014e-308,1.7976931348623157e308]]`,
		`[[1e400]]`, `[[-1e400]]`, `[[1e-400]]`,
		`[[null,1,2,3,4,5]]`, `[[1,null]]`,
		`null`, `[]`, `[null]`, `[[]]`, `[[],null,[1]]`,
		`[["1"]]`, `[[true]]`, `[[{}]]`, `[[[1]]]`, `[1,2]`, `{"a":1}`, `"x"`, `1`,
		`[[1,2]`, `[[1,2]]x`, `[[01]]`, `[[1.]]`, `[[+1]]`, `[[.5]]`, `[[1e]]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref [][]float64
		refErr := json.Unmarshal(data, &ref)
		var got pointSlab
		err := json.Unmarshal(data, &got)
		wantErr := refErr != nil || hasNullCoordinate(data)
		if (err != nil) != wantErr {
			t.Fatalf("%q: slab error %v, [][]float64 error %v, null coordinate %v", data, err, refErr, hasNullCoordinate(data))
		}
		if err != nil {
			return
		}
		if len(got) != len(ref) {
			t.Fatalf("%q: %d points, want %d", data, len(got), len(ref))
		}
		for i := range ref {
			if len(got[i]) != len(ref[i]) {
				t.Fatalf("%q: point %d has %d coordinates, want %d", data, i, len(got[i]), len(ref[i]))
			}
			for j := range ref[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(ref[i][j]) {
					t.Fatalf("%q: points[%d][%d] = %v, want %v", data, i, j, got[i][j], ref[i][j])
				}
			}
		}

		// The single point of /v1/evaluate takes the same parser.
		var refOne []float64
		refErr = json.Unmarshal(data, &refOne)
		var one coords
		err = json.Unmarshal(data, &one)
		var ptrs []*float64
		wantErr = refErr != nil || json.Unmarshal(data, &ptrs) == nil && slices.Contains(ptrs, nil)
		if (err != nil) != wantErr {
			t.Fatalf("%q: coords error %v, []float64 error %v", data, err, refErr)
		}
		if err == nil && !slices.EqualFunc(one, refOne, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}) {
			t.Fatalf("%q: coords %v, want %v", data, one, refOne)
		}
	})
}

func TestPointSlabSharesOneBackingArray(t *testing.T) {
	var s pointSlab
	if err := json.Unmarshal([]byte(`[[1,2,3],[4,5,6],[7,8,9]]`), &s); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(s); i++ {
		if reflect.ValueOf(s[i]).Pointer() != reflect.ValueOf(s[i-1]).Pointer()+uintptr(8*len(s[i-1])) {
			t.Fatalf("point %d does not follow point %d in one backing array", i, i-1)
		}
		if cap(s[i-1]) != len(s[i-1]) {
			t.Fatalf("point %d has spare capacity %d: an append would overwrite its neighbour", i-1, cap(s[i-1]))
		}
	}
}

func TestBatchLinesResequence(t *testing.T) {
	rec := httptest.NewRecorder()
	out := newNDJSONWriter(rec)
	q := newBatchLines(out, 5)
	for _, i := range []int{2, 0, 3, 1, 4} {
		q.add(i, engine.Outcome{Value: float64(10 * i)})
	}
	out.Close()
	lines := strings.Fields(strings.TrimSpace(rec.Body.String()))
	if len(lines) != 5 {
		t.Fatalf("emitted %d lines, want 5", len(lines))
	}
	for i, line := range lines {
		var r BatchResult
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if r.Index != i || r.Value == nil || float64(*r.Value) != float64(10*i) {
			t.Fatalf("line %d is %s; submission order violated", i, line)
		}
	}
}

// TestNullCoordinateRejected pins the one coordinate parser on every
// route that reads points: null and non-numbers are a 400 validation
// envelope, never a zero coordinate.
func TestNullCoordinateRejected(t *testing.T) {
	peer := startClusterPeers(t, 1, cluster.Options{})[0]
	good := `[4.725,2.025,4.275,3,16,256]`
	cases := []struct {
		name, route, body, want string
	}{
		{"evaluate null", "/v1/evaluate", `{"model":{"app":"tmm"},"point":[null,2.025,4.275,3,16,256]}`, "point[0]: null is not a number"},
		{"evaluate string", "/v1/evaluate", `{"model":{"app":"tmm"},"point":[4.725,"2",4.275,3,16,256]}`, "point[1]: a string is not a number"},
		{"evaluate bool", "/v1/evaluate", `{"model":{"app":"tmm"},"point":[4.725,2.025,4.275,3,16,true]}`, "point[5]: a boolean is not a number"},
		{"evaluate scalar", "/v1/evaluate", `{"model":{"app":"tmm"},"point":4.725}`, "point: want an array of numbers"},
		{"batch null", "/v1/evaluate:batch", `{"model":{"app":"tmm"},"points":[` + good + `,[4.725,2.025,null,3,16,256]]}`, "points[1][2]: null is not a number"},
		{"batch object", "/v1/evaluate:batch", `{"model":{"app":"tmm"},"points":[[{},2.025,4.275,3,16,256]]}`, "points[0][0]: an object is not a number"},
		{"batch nested", "/v1/evaluate:batch", `{"model":{"app":"tmm"},"points":[[[4.725],2.025,4.275,3,16,256]]}`, "points[0][0]: an array is not a number"},
		{"batch flat", "/v1/evaluate:batch", `{"model":{"app":"tmm"},"points":[4.725,2.025]}`, "points[0]: want an array of numbers"},
		{"peer-eval null", "/internal/v1/peer-eval", `{"model":{"app":"tmm"},"points":[[4.725,2.025,4.275,3,16,null]]}`, "points[0][5]: null is not a number"},
		{"peer-eval string", "/internal/v1/peer-eval", `{"model":{"app":"tmm"},"points":[` + good + `,["x",2.025,4.275,3,16,256]]}`, "points[1][0]: a string is not a number"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(peer.url+tc.route, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
			env := checkEnvelope(t, tc.name, body)
			if env.Code != CodeValidation || !strings.Contains(env.Message, tc.want) {
				t.Fatalf("envelope %+v, want code %s and a message containing %q", env, CodeValidation, tc.want)
			}
		})
	}
	// The same bodies with the bad coordinate replaced are accepted.
	for _, route := range []string{"/v1/evaluate", "/v1/evaluate:batch", "/internal/v1/peer-eval"} {
		body := `{"model":{"app":"tmm"},"points":[` + good + `]}`
		if route == "/v1/evaluate" {
			body = `{"model":{"app":"tmm"},"point":` + good + `}`
		}
		resp, err := http.Post(peer.url+route, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d for a well-formed point", route, resp.StatusCode)
		}
	}
}

// scriptedEvaluator delegates to the catalog evaluator except at two
// points: one always fails, one scores +Inf. It keeps a fingerprint so
// the engine caches its values.
type scriptedEvaluator struct {
	inner       dse.CtxEvaluator
	fail, inf   []float64
	fingerprint string
}

func (e scriptedEvaluator) Fingerprint() string { return e.fingerprint }

func (e scriptedEvaluator) EvaluateCtx(ctx context.Context, p []float64) (float64, error) {
	switch {
	case slices.Equal(p, e.fail):
		return 0, errors.New(`scripted failure: <b>"A0"</b> & co`)
	case slices.Equal(p, e.inf):
		return math.Inf(1), nil
	}
	return e.inner.EvaluateCtx(ctx, p)
}

// withEvaluatorWrap installs wrap as the server's evaluator hook for
// the duration of the test.
func withEvaluatorWrap(t *testing.T, wrap func(dse.CtxEvaluator) dse.CtxEvaluator) {
	t.Helper()
	prev := testWrapEvaluator
	testWrapEvaluator = wrap
	t.Cleanup(func() { testWrapEvaluator = prev })
}

// checkLinesGolden re-encodes every line of an NDJSON response with
// json.Encoder, through the type the line decodes to, and requires the
// same bytes back; it returns the result lines.
func checkLinesGolden[T any](t *testing.T, body []byte) []T {
	t.Helper()
	var results []T
	for _, line := range bytes.SplitAfter(body, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		if bytes.Contains(line, []byte(`"done"`)) {
			continue
		}
		var r T
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("line %s: %v", line, err)
		}
		if want := encoderLine(t, r); !bytes.Equal(line, want) {
			t.Fatalf("line differs from json.Encoder\n got %s\nwant %s", line, want)
		}
		results = append(results, r)
	}
	return results
}

// TestBatchLinesGolden: a mixed batch — cache hits, misses, an
// infeasible +Inf and a per-point error — yields lines byte-identical
// to json.Encoder, on /v1/evaluate:batch and on the peer wire.
func TestBatchLinesGolden(t *testing.T) {
	pts := testPoints(t, 12)
	withEvaluatorWrap(t, func(ev dse.CtxEvaluator) dse.CtxEvaluator {
		fp := "golden"
		if f, ok := ev.(engine.Fingerprinter); ok {
			fp = f.Fingerprint() + "|golden"
		}
		return scriptedEvaluator{inner: ev, fail: pts[3], inf: pts[7], fingerprint: fp}
	})
	peer := startClusterPeers(t, 1, cluster.Options{})[0]
	post := func(route string, req interface{}) []byte {
		t.Helper()
		resp := postJSON(t, &http.Client{}, peer.url+route, req)
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v: %s", route, resp.StatusCode, err, body)
		}
		return body
	}
	model := ModelSpec{App: "tmm"}
	// Warm the even points, then send all twelve: hits and misses mixed.
	var even [][]float64
	for i := 0; i < len(pts); i += 2 {
		even = append(even, pts[i])
	}
	post("/v1/evaluate:batch", BatchRequest{Model: model, Points: even})
	results := checkLinesGolden[BatchResult](t, post("/v1/evaluate:batch", BatchRequest{Model: model, Points: pts}))
	if len(results) != len(pts) {
		t.Fatalf("%d result lines, want %d", len(results), len(pts))
	}
	for i, r := range results {
		switch {
		case r.Index != i:
			t.Fatalf("line %d carries index %d", i, r.Index)
		case i == 3:
			if r.Error == nil || r.Value != nil || r.Attempts == 0 {
				t.Fatalf("failing point: %+v", r)
			}
		case i == 7:
			if r.Value == nil || !math.IsInf(float64(*r.Value), 1) {
				t.Fatalf("infeasible point: %+v", r)
			}
		case i%2 == 0:
			if !r.CacheHit {
				t.Fatalf("warmed point %d missed the cache: %+v", i, r)
			}
		default:
			if r.CacheHit || r.Attempts == 0 {
				t.Fatalf("cold point %d: %+v", i, r)
			}
		}
	}

	rawModel, err := json.Marshal(model)
	if err != nil {
		t.Fatal(err)
	}
	peerLines := checkLinesGolden[cluster.PeerEvalResult](t, post("/internal/v1/peer-eval", cluster.PeerEvalRequest{Model: rawModel, Points: pts}))
	if len(peerLines) != len(pts) {
		t.Fatalf("%d peer-eval lines, want %d", len(peerLines), len(pts))
	}
	for _, r := range peerLines {
		i := r.Index
		switch {
		case i == 3:
			if r.Error == "" || r.Bits != "" {
				t.Fatalf("failing point on the peer wire: %+v", r)
			}
		case i == 7:
			if r.Bits != "7ff0000000000000" {
				t.Fatalf("infeasible point on the peer wire: %+v", r)
			}
		default:
			if !r.CacheHit || len(r.Bits) != 16 || float64(*results[i].Value) != mustParseBits(t, r.Bits) {
				t.Fatalf("peer line %+v, batch line %+v", r, results[i])
			}
		}
	}
}

func mustParseBits(t *testing.T, s string) float64 {
	t.Helper()
	v, err := cluster.ParseBits(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestBatchStreamsBeforeCompletion pins the time cap of the flush rule:
// with the last point's evaluation held back, the finished points still
// reach the client.
func TestBatchStreamsBeforeCompletion(t *testing.T) {
	pts := testPoints(t, 8)
	last := pts[len(pts)-1]
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	withEvaluatorWrap(t, func(ev dse.CtxEvaluator) dse.CtxEvaluator {
		return evalFunc(func(ctx context.Context, p []float64) (float64, error) {
			if slices.Equal(p, last) {
				select {
				case <-release:
				case <-ctx.Done():
					return 0, ctx.Err()
				}
			}
			return ev.EvaluateCtx(ctx, p)
		})
	})
	_, ts := newTestServer(t, Options{})
	t.Cleanup(unblock) // runs before the server's cleanup
	body, err := json.Marshal(BatchRequest{Model: ModelSpec{App: "tmm"}, Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	// The response headers travel with the first flush, so the request
	// itself waits on the time cap too.
	type firstLine struct {
		resp *http.Response
		br   *bufio.Reader
		line string
		err  error
	}
	first := make(chan firstLine, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/evaluate:batch", "application/json", bytes.NewReader(body))
		if err != nil {
			first <- firstLine{err: err}
			return
		}
		br := bufio.NewReader(resp.Body)
		line, err := br.ReadString('\n')
		first <- firstLine{resp: resp, br: br, line: line, err: err}
	}()
	var br *bufio.Reader
	select {
	case f := <-first:
		if f.resp != nil {
			defer f.resp.Body.Close()
		}
		var r BatchResult
		if f.err == nil {
			f.err = json.Unmarshal([]byte(f.line), &r)
		}
		if f.err != nil || r.Index != 0 {
			t.Fatalf("first line %q (%v), want the result of point 0", f.line, f.err)
		}
		br = f.br
	case <-time.After(10 * time.Second):
		t.Fatal("no result line reached the client while the last point was pending")
	}
	unblock()
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(rest, []byte("\n")); n != len(pts) {
		t.Fatalf("%d lines after the first, want %d (the remaining results and the summary)", n, len(pts))
	}
}

// evalFunc is an unfingerprinted evaluator built from a closure.
type evalFunc func(context.Context, []float64) (float64, error)

func (f evalFunc) EvaluateCtx(ctx context.Context, p []float64) (float64, error) { return f(ctx, p) }

// warmBatchServer returns a server whose cache holds every point of a
// 1024-point batch, and that batch's request body.
func warmBatchServer(tb testing.TB) (*Server, []byte) {
	tb.Helper()
	c := DefaultCatalog()
	m, err := c.ResolveModel(ModelSpec{App: "tmm"})
	if err != nil {
		tb.Fatal(err)
	}
	space, err := c.Space(m, SpaceSpec{Per: 4})
	if err != nil {
		tb.Fatal(err)
	}
	b := []byte(`{"model":{"app":"tmm"},"points":[`)
	for i := 0; i < 1024; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range space.Point(i) {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		b = append(b, ']')
	}
	b = append(b, "]}"...)
	s := New(Options{})
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	if sum := serveBatch(tb, s, b); sum.Errors != 0 {
		tb.Fatalf("warm-up batch: %d errors", sum.Errors)
	}
	return s, b
}

// serveBatch runs one batch request through the handler in process and
// returns its summary line.
func serveBatch(tb testing.TB, s *Server, body []byte) BatchSummary {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/evaluate:batch", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	out := bytes.TrimSpace(rec.Body.Bytes())
	var sum BatchSummary
	if err := json.Unmarshal(out[bytes.LastIndexByte(out, '\n')+1:], &sum); err != nil {
		tb.Fatalf("summary line: %v", err)
	}
	return sum
}

// TestBatchHandlerAllocs pins the batch codec's allocation budget: a
// warm 1024-point batch through ServeHTTP — decode, engine, encode and
// the recorder's body — stays at or below two allocations per point.
func TestBatchHandlerAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates")
	}
	s, body := warmBatchServer(t)
	allocs := testing.AllocsPerRun(10, func() {
		if sum := serveBatch(t, s, body); sum.CacheHits != 1024 {
			t.Fatalf("warm batch hit the cache %d times, want 1024", sum.CacheHits)
		}
	})
	if perPt := allocs / 1024; perPt > 2 {
		t.Fatalf("warm batch allocates %.2f objects per point, want ≤ 2", perPt)
	} else {
		t.Logf("warm batch: %.2f allocations per point", perPt)
	}
}

// BenchmarkBatchHandler times a warm 1024-point batch through ServeHTTP
// in process, per point.
func BenchmarkBatchHandler(b *testing.B) {
	s, body := warmBatchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveBatch(b, s, body)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1024, "ns/pt")
}
