package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/dse"
	"repro/internal/engine"
)

// This file is the server half of the cluster tier (DESIGN.md §15): the
// peer endpoint a remote coordinator calls, and the routing that turns
// a local request into ring-partitioned local + remote work. The
// invariant throughout is graceful-and-never-wrong: any peer failure —
// breaker open, connection refused, short response, mid-sweep death —
// falls back to computing the affected points on the local engine,
// which is bit-identical because every family kernel is deterministic.
// The cluster can lose cache locality, never correctness.

// --- request routing --------------------------------------------------

// pointGroup is one owner's slice of a request's points.
type pointGroup struct {
	owner string
	idx   []int
}

// partitionPoints splits points by ring ownership: the local indices,
// plus one group per remote owner in first-appearance order (no map
// iteration, so the fan-out order is deterministic).
func (s *Server) partitionPoints(fp string, points [][]float64) (local []int, remote []*pointGroup) {
	groups := make(map[string]*pointGroup)
	for i, p := range points {
		owner, isLocal := s.cluster.Owner(engine.KeyHash(fp, p))
		if isLocal {
			local = append(local, i)
			continue
		}
		g := groups[owner]
		if g == nil {
			g = &pointGroup{owner: owner}
			groups[owner] = g
			remote = append(remote, g)
		}
		g.idx = append(g.idx, i)
	}
	return local, remote
}

// subsetPoints gathers the points at idx.
func subsetPoints(points [][]float64, idx []int) [][]float64 {
	out := make([][]float64, len(idx))
	for k, i := range idx {
		out[k] = points[i]
	}
	return out
}

// routedStream is the cluster tier's one routing path: every
// evaluation route, /v1/sweep and every sweep job run their points
// through its EvaluateStream, so this is the one place that decides
// local vs remote. Locally owned points run on the shared engine;
// remote-owned points travel to their owner's peer-eval endpoint (so
// the owner's cache serves or learns them) in exchanges of at most
// MaxBatchPoints, and a failed exchange recomputes its points locally.
type routedStream struct {
	s *Server
	// ms and es are the request's wire specs, which a peer re-resolves
	// into the identical evaluator.
	ms ModelSpec
	es EvaluatorSpec
	// evaluated, when non-nil, counts the points a peer computed (its
	// outcomes that were not cache hits), so a sweep's progress covers
	// the whole cluster; local work is counted by the evaluator itself
	// (withCount).
	evaluated *atomic.Int64
}

// streamRouted returns the stream a request's points run on: the shared
// engine when the server is standalone, else the routed stream.
func (s *Server) streamRouted(ms ModelSpec, es EvaluatorSpec, evaluated *atomic.Int64) dse.Streamer {
	if s.cluster == nil {
		return s.eng
	}
	return routedStream{s: s, ms: ms, es: es, evaluated: evaluated}
}

// EvaluateStream implements dse.Streamer. yield is serialized but may be
// called from several goroutines' turns; an uncacheable evaluator (it
// has no ring key) runs on the plain engine stream.
func (r routedStream) EvaluateStream(ctx context.Context, ev dse.CtxEvaluator, points [][]float64, yield func(int, engine.Outcome)) error {
	s := r.s
	fp := ""
	if f, ok := ev.(engine.Fingerprinter); ok {
		fp = f.Fingerprint()
	}
	if fp == "" {
		return s.eng.EvaluateStream(ctx, ev, points, yield)
	}
	local, remote := s.partitionPoints(fp, points)
	s.cluster.CountLocal(len(local))
	s.cluster.CountRemote(len(points) - len(local))
	if len(remote) == 0 {
		return s.eng.EvaluateStream(ctx, ev, points, yield)
	}
	req := cluster.PeerEvalRequest{}
	var err error
	if req.Model, err = json.Marshal(r.ms); err != nil {
		return err
	}
	if r.es != (EvaluatorSpec{}) {
		if req.Evaluator, err = json.Marshal(r.es); err != nil {
			return err
		}
	}

	var mu sync.Mutex
	emit := func(i int, o engine.Outcome) {
		mu.Lock()
		defer mu.Unlock()
		if yield != nil {
			yield(i, o)
		}
	}
	var wg sync.WaitGroup
	if len(local) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.eng.EvaluateStream(ctx, ev, subsetPoints(points, local), func(k int, o engine.Outcome) {
				emit(local[k], o)
			})
		}()
	}
	for _, g := range remote {
		wg.Add(1)
		go func(g *pointGroup) {
			defer wg.Done()
			// One exchange at a time per owner, so a large sweep's share
			// holds one of the owner's admission slots, not many.
			for lo := 0; lo < len(g.idx) && ctx.Err() == nil; lo += s.opts.MaxBatchPoints {
				idx := g.idx[lo:min(lo+s.opts.MaxBatchPoints, len(g.idx))]
				r.exchange(ctx, ev, g.owner, req, idx, points, emit)
			}
		}(g)
	}
	wg.Wait()
	return ctx.Err()
}

// exchange evaluates the points at idx on their owner, recomputing them
// locally when the exchange fails.
func (r routedStream) exchange(ctx context.Context, ev dse.CtxEvaluator, owner string, req cluster.PeerEvalRequest, idx []int, points [][]float64, emit func(int, engine.Outcome)) {
	s := r.s
	req.Points = subsetPoints(points, idx)
	//lint:allow detguard the exchange's clock reads drive the peer breaker and latency histogram; a refused or failed exchange recomputes locally with the same kernel, so values never depend on them
	outs, err := s.cluster.EvalOnPeer(ctx, owner, req)
	if err == nil {
		for k, o := range outs {
			if !o.CacheHit && r.evaluated != nil {
				r.evaluated.Add(1)
			}
			emit(idx[k], engine.Outcome{Value: o.Value, CacheHit: o.CacheHit, Err: o.Err})
		}
		return
	}
	if ctx.Err() != nil {
		return // cancelled: unstarted points produce no yield, like EvaluateStream
	}
	// Peer unavailable: graceful, never wrong — the same deterministic
	// kernel computes the points locally.
	s.cluster.CountFallback(len(idx))
	_ = s.eng.EvaluateStream(ctx, ev, req.Points, func(k int, o engine.Outcome) {
		emit(idx[k], o)
	})
}

// --- peer endpoint ----------------------------------------------------

// handlePeerEval evaluates a forwarded point batch on the local engine
// — always locally: a peer-eval request never re-routes, so transient
// ring disagreement between peers cannot ping-pong a batch. Results
// stream back as NDJSON in completion order, values as IEEE-754 bit
// patterns (the coordinator re-sequences by index).
func (s *Server) handlePeerEval(w http.ResponseWriter, r *http.Request) {
	var req peerEvalWire
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if len(req.Points) == 0 {
		s.fail(w, validationf("server: peer-eval carries no points"))
		return
	}
	if len(req.Points) > s.opts.MaxBatchPoints {
		s.fail(w, validationf("server: peer-eval of %d points exceeds the %d-point bound", len(req.Points), s.opts.MaxBatchPoints))
		return
	}
	var ms ModelSpec
	if err := json.Unmarshal(req.Model, &ms); err != nil {
		s.fail(w, validationf("server: peer-eval model spec: %v", err))
		return
	}
	var es EvaluatorSpec
	if len(req.Evaluator) > 0 {
		if err := json.Unmarshal(req.Evaluator, &es); err != nil {
			s.fail(w, validationf("server: peer-eval evaluator spec: %v", err))
			return
		}
	}
	fm, ev, err := s.resolveWork(ms, es)
	if err != nil {
		s.fail(w, err)
		return
	}
	dims := len(fm.Space().Params)
	for i, p := range req.Points {
		if len(p) != dims {
			s.fail(w, validationf("server: peer-eval point %d: %v", i, checkPointDims(fm, p)))
			return
		}
	}
	out := newNDJSONWriter(w)
	defer out.Close()
	var line []byte
	failures := 0
	_ = s.eng.EvaluateStream(r.Context(), ev, req.Points, func(i int, o engine.Outcome) {
		if o.Err != nil {
			failures++
		}
		line = cluster.AppendPeerEvalResult(line[:0], i, o.Value, o.CacheHit || o.Shared, o.Err)
		out.Write(line)
	})
	out.Emit(cluster.PeerEvalSummary{Done: true, Points: len(req.Points), Errors: failures})
}
