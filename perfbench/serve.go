package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	c2bound "repro"
)

// The serve-mixed workload: loopback HTTP against NewServer after one
// warm-up pass over the per=6 space, with two streams at once:
//
//   - bulk: one closed-loop client posting seeded batchPoints-point
//     /v1/evaluate:batch requests drawn from the warmed set (cache
//     reads, so the wire dominates);
//   - interactive: an open-loop sender posting single-point
//     /v1/evaluate what-ifs drawn from the 10^6-point paper space at a
//     fixed rate (mostly misses on the scalar path, i.e. cache writes),
//     each timed from its due time.
//
// Each stream owns one connection, so the load never exceeds two
// threads of work on the two-core reference box.

const (
	serveBodies  = 16 // distinct seeded bulk request bodies, cycled
	serveSamples = 8  // seeded wire values per batch checked bit for bit
	setupRepeats = 5  // server set-ups per run; setup_s is their median
)

// serveInputs are the seeded inputs of one run.
type serveInputs struct {
	spec      []byte                   // JSON model spec every request names
	ref       *c2bound.FamilyEvaluator // in-process reference (unwrapped)
	check     c2bound.CtxEvaluator     // the reference the gate compares to
	warm      [][]float64              // the warmed per=6 points
	warmVals  []float64                // their reference values
	bodies    [][]byte                 // bulk request bodies
	bodyIdx   [][]int                  // warm indices each body carries
	paper     c2bound.DesignSpace      // where what-ifs are drawn from
	singleRNG splitmix64
}

func newServeInputs(ctx context.Context, cfg config) (*serveInputs, error) {
	fseq := workloadFseq(cfg.seed)
	app := c2bound.FluidanimateApp()
	app.Fseq = fseq
	fm, err := c2bound.BuildModel(app)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{
		spec:      []byte(`{"app":"fluidanimate","overrides":{"fseq":` + strconv.FormatFloat(fseq, 'g', -1, 64) + `}}`),
		ref:       c2bound.NewFamilyEvaluator(fm),
		singleRNG: splitmix64(cfg.seed ^ 0x51e),
	}
	in.check = cfg.wrapped(in.ref)
	warmSpace, err := c2bound.FamilyDesignSpace(fm, cfg.scale.servePer)
	if err != nil {
		return nil, err
	}
	if in.paper, err = c2bound.FamilyDesignSpace(fm, 0); err != nil {
		return nil, err
	}
	in.warm = make([][]float64, warmSpace.Size())
	in.warmVals = make([]float64, len(in.warm))
	for i := range in.warm {
		in.warm[i] = warmSpace.Point(i)
		if in.warmVals[i], err = in.check.EvaluateCtx(ctx, in.warm[i]); err != nil {
			return nil, err
		}
	}
	rng := splitmix64(cfg.seed ^ 0xba7c)
	for b := 0; b < serveBodies; b++ {
		idx := make([]int, cfg.scale.batchPoints)
		pts := make([][]float64, len(idx))
		for i := range idx {
			idx[i] = rng.intn(len(in.warm))
			pts[i] = in.warm[idx[i]]
		}
		in.bodyIdx = append(in.bodyIdx, idx)
		in.bodies = append(in.bodies, in.batchBody(pts))
	}
	return in, nil
}

func appendPoint(b []byte, p []float64) []byte {
	b = append(b, '[')
	for i, v := range p {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, ']')
}

func (in *serveInputs) batchBody(pts [][]float64) []byte {
	b := append([]byte(`{"model":`), in.spec...)
	b = append(b, `,"points":[`...)
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendPoint(b, p)
	}
	return append(b, "]}"...)
}

func (in *serveInputs) singleBody(p []float64) []byte {
	b := append([]byte(`{"model":`), in.spec...)
	b = append(b, `,"point":`...)
	b = appendPoint(b, p)
	return append(b, '}')
}

// timedHandler is the benchmark-side wrapper around the server's
// handler: one span per batch or single request once recording starts.
type timedHandler struct {
	inner http.Handler
	rec   atomic.Pointer[recorder]
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := h.rec.Load()
	sp := rec.begin("server."+r.URL.Path, -1)
	h.inner.ServeHTTP(w, r)
	rec.end(sp)
}

// serveSet is one running server on a loopback listener.
type serveSet struct {
	srv     *c2bound.Server
	handler *timedHandler // nil when untraced
	http    *http.Server
	served  chan struct{} // closed when Serve returns
	base    string
}

func startServer(ctx context.Context, cfg config, in *serveInputs, traced bool) (*serveSet, time.Duration, error) {
	t0 := time.Now()
	opts := c2bound.ServerOptions{}
	if traced {
		opts.Tracer, opts.Metrics = c2bound.NewTracer(0), c2bound.NewMetrics()
	}
	s := &serveSet{srv: c2bound.NewServer(opts), served: make(chan struct{})}
	var h http.Handler = s.srv
	if traced {
		s.handler = &timedHandler{inner: s.srv}
		h = s.handler
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	s.base = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: h}
	go func() {
		defer close(s.served)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	c := newClient()
	defer c.CloseIdleConnections()
	for lo := 0; lo < len(in.warm); lo += cfg.scale.batchPoints {
		hi := min(lo+cfg.scale.batchPoints, len(in.warm))
		r, err := postBatch(ctx, c, s.base, in.batchBody(in.warm[lo:hi]), hi-lo)
		if err == nil && r.errors > 0 {
			err = fmt.Errorf("%d points failed", r.errors)
		}
		if err != nil {
			s.stop()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, time.Since(t0), nil
}

// stop closes the listener and every connection, then waits for Serve
// to return and the server's in-flight work to drain.
func (s *serveSet) stop() {
	_ = s.http.Close()
	<-s.served
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
}

// newClient is one client with a single keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// errShed marks a 429 answer.
var errShed = errors.New("shed (429)")

// batchReply is one parsed NDJSON batch response.
type batchReply struct {
	values        []float64
	results, hits int
	errors        int
}

// parseBatch reads an NDJSON batch response: one line per point, then
// the summary line. It looks fields up by name, so it does not depend
// on field order.
func parseBatch(r io.Reader, n int) (batchReply, error) {
	rep := batchReply{values: make([]float64, n)}
	seen := make([]bool, n)
	br := bufio.NewReaderSize(r, 64<<10)
	summary := false
	for {
		line, err := br.ReadSlice('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			if bytes.Contains(line, []byte(`"done":`)) {
				var s struct{ Points, Errors int }
				if err := json.Unmarshal(line, &s); err != nil {
					return rep, fmt.Errorf("summary: %w", err)
				}
				if s.Points != n {
					return rep, fmt.Errorf("summary counts %d points, sent %d", s.Points, n)
				}
				rep.errors += s.Errors
				summary = true
			} else {
				i, ok := intField(line, `"index":`)
				if !ok || i < 0 || i >= n || seen[i] {
					return rep, fmt.Errorf("bad or repeated index in %q", line)
				}
				seen[i] = true
				rep.results++
				if v, ok := floatField(line, `"value":`); ok {
					rep.values[i] = v
				} else {
					rep.values[i] = math.NaN()
				}
				if bytes.Contains(line, []byte(`"cache_hit":true`)) {
					rep.hits++
				}
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return rep, err
		}
	}
	if !summary || rep.results != n {
		return rep, fmt.Errorf("%d of %d results, summary %v", rep.results, n, summary)
	}
	return rep, nil
}

// token returns the JSON scalar following key in line.
func token(line []byte, key string) ([]byte, bool) {
	k := bytes.Index(line, []byte(key))
	if k < 0 {
		return nil, false
	}
	rest := bytes.TrimLeft(line[k+len(key):], " ")
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return nil, false
	}
	return bytes.TrimSpace(rest[:end]), true
}

func intField(line []byte, key string) (int, bool) {
	t, ok := token(line, key)
	if !ok {
		return 0, false
	}
	v, err := strconv.Atoi(string(t))
	return v, err == nil
}

// floatField parses a value the server writes as a number or, for ±Inf
// and NaN, as a quoted string.
func floatField(line []byte, key string) (float64, bool) {
	t, ok := token(line, key)
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(bytes.Trim(t, `"`)), 64)
	return v, err == nil
}

func post(ctx context.Context, c *http.Client, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			return nil, errShed
		}
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return resp, nil
}

func postBatch(ctx context.Context, c *http.Client, base string, body []byte, n int) (batchReply, error) {
	resp, err := post(ctx, c, base+"/v1/evaluate:batch", body)
	if err != nil {
		return batchReply{}, err
	}
	defer resp.Body.Close()
	return parseBatch(resp.Body, n)
}

// mixedStats is what one mixed phase measured.
type mixedStats struct {
	elapsed      time.Duration
	batchPts     int
	batchLat     []float64       // ms
	batchDone    []time.Duration // completion offsets of the batches in batchLat
	singleLat    []float64       // ms, from due time
	late         []float64       // ms the sender ran behind schedule
	batchHits    int
	singleHits   int
	attempted    int
	failed       int
	singlePoints [][]float64
	singleValues []float64
	mismatches   []string // failures other than shedding
}

// gateBatch checks a batch reply: every point answered without error,
// and a seeded sample bit-identical to in-process evaluation.
func gateBatch(in *serveInputs, idx []int, rep batchReply, rng *splitmix64) error {
	if rep.errors > 0 {
		return fmt.Errorf("%d points failed", rep.errors)
	}
	for k := 0; k < serveSamples; k++ {
		i := rng.intn(len(idx))
		if want := in.warmVals[idx[i]]; math.Float64bits(want) != math.Float64bits(rep.values[i]) {
			return fmt.Errorf("point %v: wire %v, in-process %v", in.warm[idx[i]], rep.values[i], want)
		}
	}
	return nil
}

// mixed runs both streams against s for budget.
func mixed(ctx context.Context, cfg config, in *serveInputs, s *serveSet, budget time.Duration) *mixedStats {
	st := &mixedStats{}
	var mu sync.Mutex // guards st between the two stream goroutines
	runtime.GC()      // start every timed phase from the same heap state
	start := time.Now()
	deadline := start.Add(budget)
	var wg sync.WaitGroup
	wg.Add(2)

	go func() { // bulk: closed loop
		defer wg.Done()
		c := newClient()
		defer c.CloseIdleConnections()
		rng := splitmix64(cfg.seed ^ 0xb01c)
		for k := 0; time.Now().Before(deadline); k++ {
			b := k % len(in.bodies)
			t := time.Now()
			rep, err := postBatch(ctx, c, s.base, in.bodies[b], len(in.bodyIdx[b]))
			lat := time.Since(t)
			if err == nil {
				err = gateBatch(in, in.bodyIdx[b], rep, &rng)
			}
			mu.Lock()
			st.attempted++
			if err != nil {
				st.failed++
				if !errors.Is(err, errShed) {
					st.mismatches = append(st.mismatches, "batch: "+err.Error())
				}
			} else {
				st.batchPts += rep.results
				st.batchHits += rep.hits
				st.batchLat = append(st.batchLat, float64(lat.Nanoseconds())/1e6)
				st.batchDone = append(st.batchDone, time.Since(start))
			}
			mu.Unlock()
		}
	}()

	go func() { // interactive: open loop, timed from each request's due time
		defer wg.Done()
		c := newClient()
		defer c.CloseIdleConnections()
		interval := time.Duration(float64(time.Second) / cfg.scale.singleRate)
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * interval)
			if !due.Before(deadline) {
				return
			}
			if wait := time.Until(due); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-ctx.Done():
					t.Stop()
					return
				case <-t.C:
				}
			}
			p := in.paper.Point(in.singleRNG.intn(in.paper.Size()))
			sent := time.Now()
			var out struct {
				Value    json.RawMessage `json:"value"`
				CacheHit bool            `json:"cache_hit"`
			}
			resp, err := post(ctx, c, s.base+"/v1/evaluate", in.singleBody(p))
			if err == nil {
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
			}
			done := time.Now()
			v := math.NaN()
			if err == nil {
				var perr error
				v, perr = strconv.ParseFloat(string(bytes.Trim(out.Value, `"`)), 64)
				err = perr
			}
			mu.Lock()
			st.attempted++
			st.late = append(st.late, float64(sent.Sub(due).Nanoseconds())/1e6)
			if err != nil {
				st.failed++
				if !errors.Is(err, errShed) {
					st.mismatches = append(st.mismatches, "what-if: "+err.Error())
				}
			} else {
				st.singleLat = append(st.singleLat, float64(done.Sub(due).Nanoseconds())/1e6)
				st.singlePoints = append(st.singlePoints, p)
				st.singleValues = append(st.singleValues, v)
				if out.CacheHit {
					st.singleHits++
				}
			}
			mu.Unlock()
		}
	}()
	wg.Wait()
	st.elapsed = time.Since(start)
	return st
}

// gateSingles compares every answered what-if with in-process
// evaluation, after the timed phase so the check costs the server
// nothing.
func gateSingles(ctx context.Context, in *serveInputs, st *mixedStats, o *outcome) {
	for i, p := range st.singlePoints {
		want, err := in.check.EvaluateCtx(ctx, p)
		if err != nil || math.Float64bits(want) != math.Float64bits(st.singleValues[i]) {
			o.mismatch("serve: what-if %v: wire %v, in-process %v (%v)", p, st.singleValues[i], want, err)
			o.failed++
			return
		}
	}
}

func (st *mixedStats) account(o *outcome) {
	o.attempted += st.attempted
	o.failed += st.failed
	for _, m := range st.mismatches {
		o.mismatch("serve: %s", m)
	}
}

// evalsPerS is the bulk stream's throughput: the median over the
// phase's whole one-second windows of the points completed in each, so
// one stalled second does not move it.
func (st *mixedStats) evalsPerS() float64 {
	windows := make([]float64, int(st.elapsed/time.Second))
	if len(windows) == 0 || len(st.batchDone) == 0 {
		return float64(st.batchPts) / st.elapsed.Seconds()
	}
	per := float64(st.batchPts) / float64(len(st.batchDone))
	for _, d := range st.batchDone {
		if w := int(d / time.Second); w < len(windows) {
			windows[w] += per
		}
	}
	return median(windows)
}

func runServe(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome()
	in, err := newServeInputs(ctx, cfg)
	if err != nil {
		return nil, err
	}
	var setups []time.Duration
	var s *serveSet
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.stop()
		}
		// Collect the stopped server first, so each set-up reuses its
		// memory instead of faulting in fresh pages.
		runtime.GC()
		var d time.Duration
		if s, d, err = startServer(ctx, cfg, in, false); err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	st := mixed(ctx, cfg, in, s, budget)
	st.account(o)
	o.e2e["op_p50_ms"] = median(st.batchLat)
	o.e2e["evals_per_s"] = st.evalsPerS()
	o.layer["serve_batch_evals_per_s"] = st.evalsPerS()
	o.layer["serve_batch_p50_ms"] = median(st.batchLat)
	o.layer["serve_single_p50_ms"] = median(st.singleLat)
	o.layer["serve_single_p90_ms"] = quantile(st.singleLat, 0.9)
	o.note("serve-mixed: %d batches (%.0f evals/s, p50 %.2f ms), %d what-ifs (p50 %.2f ms, p90 %.2f ms, p99 %.2f ms), sender late p99 %.2f ms",
		len(st.batchLat), st.evalsPerS(), median(st.batchLat), len(st.singleLat),
		median(st.singleLat), quantile(st.singleLat, 0.9), quantile(st.singleLat, 0.99), quantile(st.late, 0.99))

	if cfg.trace {
		if err := serveLadder(ctx, cfg, in, s, o, median(st.batchLat)); err != nil {
			s.stop()
			return nil, err
		}
	}
	s.stop()
	gateSingles(ctx, in, st, o)

	if cfg.trace {
		runtime.GC()
		ts, d, err := startServer(ctx, cfg, in, true)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
		o.spans = newRecorder()
		ts.handler.rec.Store(o.spans)
		tst := mixed(ctx, cfg, in, ts, budget)
		ts.handler.rec.Store(nil)
		srvStats := ts.srv.Stats()
		ts.stop()
		tst.account(o)
		gateSingles(ctx, in, tst, o)
		ms := func(name string) []float64 {
			var xs []float64
			for _, sp := range o.spans.children(-1, name) {
				xs = append(xs, float64(sp.End-sp.Start)/1e6)
			}
			return xs
		}
		batch, single := ms("server./v1/evaluate:batch"), ms("server./v1/evaluate")
		o.layer["server.handler_batch_ms_p50"] = median(batch)
		o.layer["server.handler_single_ms_p50"] = median(single)
		o.layer["server.handler_single_ms_p99"] = quantile(single, 0.99)
		o.layer["engine.hit_ratio.batch"] = float64(tst.batchHits) / math.Max(1, float64(tst.batchPts))
		o.layer["engine.hit_ratio.single"] = float64(tst.singleHits) / math.Max(1, float64(len(tst.singleLat)))
		o.layer["server.shed"] = float64(srvStats.Shed)
		o.layer["server.errors"] = float64(srvStats.Errors)
		o.layer["loadgen.late_p99_ms"] = quantile(tst.late, 0.99)
		if tst.batchPts > 0 {
			o.layer["obs.trace_overhead_pct"] = 100 * (st.evalsPerS()/tst.evalsPerS() - 1)
		}
	}

	o.e2e["setup_s"] = median(seconds(setups))
	o.e2e["peak_rss_mb"] = peakRSSMB()
	o.e2e["success_ratio"] = float64(o.attempted-o.failed) / float64(o.attempted)
	o.layer["fail_ratio"] = float64(o.failed) / float64(o.attempted)
	return o, nil
}

// serveLadder times the bulk request bodies one rung at a time, with
// the interactive stream off: a warm in-process engine (the bound), the
// server's handler in process with no socket, and loopback HTTP. Each
// rung runs its own loop over the bodies, so it is timed in its own
// steady state.
func serveLadder(ctx context.Context, cfg config, in *serveInputs, s *serveSet, o *outcome, mixedBatchMS float64) error {
	n := float64(cfg.scale.batchPoints)
	pts := make([][][]float64, len(in.bodies))
	for b, idx := range in.bodyIdx {
		for _, w := range idx {
			pts[b] = append(pts[b], in.warm[w])
		}
	}
	rng := splitmix64(cfg.seed ^ 0x1add)
	gate := func(rung string, b int, rep batchReply, err error) {
		if err == nil {
			err = gateBatch(in, in.bodyIdx[b], rep, &rng)
		}
		if err != nil {
			o.mismatch("serve: %s batch: %v", rung, err)
			o.failed++
		}
	}

	eng := c2bound.NewEngine(c2bound.EngineOptions{})
	out := make([]float64, len(in.warm))
	if err := eng.EvaluateBatch(ctx, in.ref, in.warm, out); err != nil {
		return fmt.Errorf("warming the in-process engine: %w", err)
	}
	var engineNS, inprocNS, loopNS, respBytes, allocs []float64
	for r := 0; r < ladderReps; r++ {
		for b := range in.bodies {
			t := time.Now()
			if err := eng.EvaluateBatch(ctx, in.ref, pts[b], out[:len(pts[b])]); err != nil {
				return fmt.Errorf("engine rung: %w", err)
			}
			engineNS = append(engineNS, float64(time.Since(t).Nanoseconds())/n)
		}
	}
	for r := 0; r < ladderReps; r++ {
		for b, body := range in.bodies {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/evaluate:batch", bytes.NewReader(body)).WithContext(ctx)
			t := time.Now()
			s.srv.ServeHTTP(rec, req)
			inprocNS = append(inprocNS, float64(time.Since(t).Nanoseconds())/n)
			runtime.ReadMemStats(&ms1)
			allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)/n)
			respBytes = append(respBytes, float64(rec.Body.Len())/n)
			rep, err := parseBatch(rec.Body, len(pts[b]))
			gate("in-process", b, rep, err)
		}
	}
	c := newClient()
	defer c.CloseIdleConnections()
	for r := 0; r < ladderReps; r++ {
		for b, body := range in.bodies {
			t := time.Now()
			rep, err := postBatch(ctx, c, s.base, body, len(pts[b]))
			loopNS = append(loopNS, float64(time.Since(t).Nanoseconds())/n)
			gate("loopback", b, rep, err)
		}
	}
	warm, inproc, loop := median(engineNS), median(inprocNS), median(loopNS)
	o.layer["engine.warm_ns_per_pt"] = warm
	o.layer["server.inproc_ns_per_pt"] = inproc
	o.layer["server.wire_ns_per_pt"] = loop - inproc
	o.layer["server.resp_bytes_per_pt"] = median(respBytes)
	o.layer["server.allocs_per_pt"] = median(allocs)
	o.layer["serve.efficiency"] = warm / loop
	o.notes = append(o.notes, ladder("serve-mixed batch", []rung{{"engine", warm}, {"server", inproc}, {"wire", loop}}, o)...)
	o.note("  under the mixed load the same bodies took %.1f ns/pt", mixedBatchMS*1e6/n)
	return nil
}
