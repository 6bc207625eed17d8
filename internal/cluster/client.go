package cluster

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
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/robust"
)

// The peer wire protocol. Values cross the wire as 16-hex-digit
// IEEE-754 bit patterns, not decimal floats: the cluster's correctness
// contract is bit-identity with a single-node run, and raw bits make
// that exact by construction (NaN payloads, −0 and ±Inf included)
// without the quoted-string special cases JSON floats need.

// PeerEvalRequest is the POST /internal/v1/peer-eval body. Model and
// Evaluator are the coordinator's wire specs verbatim — opaque bytes to
// this package, re-resolved by the owner's catalog so both sides build
// the identical evaluator (and the identical fingerprint, which is what
// makes the owner's cache authoritative for these points).
type PeerEvalRequest struct {
	Model     json.RawMessage `json:"model"`
	Evaluator json.RawMessage `json:"evaluator,omitempty"`
	Points    [][]float64     `json:"points"`
}

// PeerEvalResult is one NDJSON line of a peer-eval response.
type PeerEvalResult struct {
	Index int `json:"index"`
	// Bits is the value's IEEE-754 bit pattern as 16 hex digits.
	Bits     string `json:"bits,omitempty"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	Error    string `json:"error,omitempty"`
}

// PeerEvalSummary is the final NDJSON line of a peer-eval response.
type PeerEvalSummary struct {
	Done   bool `json:"done"`
	Points int  `json:"points"`
	Errors int  `json:"errors"`
}

// FormatBits renders a value for the peer wire.
func FormatBits(v float64) string {
	var b [16]byte
	return string(appendBits(b[:0], v))
}

// appendBits appends FormatBits(v) to b: the bit pattern as 16
// zero-padded lowercase hex digits.
func appendBits(b []byte, v float64) []byte {
	var digits [16]byte
	hex := strconv.AppendUint(digits[:0], math.Float64bits(v), 16)
	for k := len(hex); k < len(digits); k++ {
		b = append(b, '0')
	}
	return append(b, hex...)
}

// AppendPeerEvalResult appends the response line for one evaluated
// point: the bytes json.Encoder writes for the PeerEvalResult with this
// index, cache flag and either err's message or v's bits, without
// building the struct.
func AppendPeerEvalResult(b []byte, index int, v float64, cacheHit bool, err error) []byte {
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(index), 10)
	if err == nil {
		b = append(b, `,"bits":"`...)
		b = appendBits(b, v)
		b = append(b, '"')
	}
	if cacheHit {
		b = append(b, `,"cache_hit":true`...)
	}
	if err != nil {
		// A string always encodes; json.Marshal escapes HTML exactly as
		// json.Encoder does.
		msg, _ := json.Marshal(err.Error())
		b = append(append(b, `,"error":`...), msg...)
	}
	return append(b, "}\n"...)
}

// ParseBits decodes a peer wire value.
func ParseBits(s string) (float64, error) {
	bits, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("cluster: value bits %q: %w", s, err)
	}
	return math.Float64frombits(bits), nil
}

// PeerOutcome is one remote evaluation result.
type PeerOutcome struct {
	Value    float64
	CacheHit bool
	// Err carries a per-point evaluation error reported by the owner
	// (the exchange itself succeeded).
	Err error
}

// errPeerOpen reports a request rejected by an open circuit breaker
// without touching the network.
var errPeerOpen = errors.New("cluster: peer circuit breaker is open")

// EvalOnPeer sends a point batch to its owner peer and returns the
// outcomes in point order. Any transport-level failure — breaker open,
// connection refused, bad status, short or malformed response — is
// returned whole so the caller can fall back to local compute; per-point
// evaluation errors come back inside the outcomes. The exchange is
// retried under the cluster's bounded retry policy and recorded against
// the peer's circuit breaker.
func (c *Cluster) EvalOnPeer(ctx context.Context, peerName string, req PeerEvalRequest) ([]PeerOutcome, error) {
	p := c.peer(peerName)
	if p == nil {
		return nil, fmt.Errorf("cluster: unknown peer %q", peerName)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding peer-eval request: %w", err)
	}
	var outs []PeerOutcome
	err = c.exchange(ctx, p, body, func(resp io.Reader) error {
		got, err := decodePeerEval(resp, len(req.Points))
		if err != nil {
			return err
		}
		outs = got
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, o := range outs {
		if o.CacheHit {
			c.remoteHit.Add(1)
		}
	}
	return outs, nil
}

// exchange performs one breaker-guarded, retried peer-eval POST to a
// peer and feeds the response body to consume. A consume error counts
// as an exchange failure (the response was unusable).
func (c *Cluster) exchange(ctx context.Context, p *peerState, body []byte, consume func(io.Reader) error) error {
	ctx, sp := c.tracer.Start(ctx, "cluster.peer_eval", obs.S("peer", p.name))
	start := time.Now()
	var rng *robust.RNG
	_, err := c.retry.Do(ctx, rng, func(ctx context.Context) error {
		return c.once(ctx, p, body, consume)
	})
	c.seconds.Observe(time.Since(start).Seconds())
	if sp != nil {
		if err != nil {
			sp.Annotate(obs.S("error", err.Error()))
		}
		sp.Finish()
	}
	return err
}

// once is a single breaker-accounted attempt.
func (c *Cluster) once(ctx context.Context, p *peerState, body []byte, consume func(io.Reader) error) error {
	if !p.allow(time.Now()) {
		// Breaker rejections are not failures: they don't extend the
		// streak, and they short-circuit the retry loop's later attempts
		// cheaply (the cooldown won't elapse within one backoff).
		return errPeerOpen
	}
	c.reqs.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.baseURL()+"/internal/v1/peer-eval", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("cluster: peer %s: %w", p.name, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		c.errs.Add(1)
		p.recordFailure(time.Now(), c.opts.FailThreshold, c.opts.Cooldown)
		return fmt.Errorf("cluster: peer %s: %w", p.name, err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		c.errs.Add(1)
		p.recordFailure(time.Now(), c.opts.FailThreshold, c.opts.Cooldown)
		return fmt.Errorf("cluster: peer %s: status %d", p.name, resp.StatusCode)
	}
	if err := consume(resp.Body); err != nil {
		c.errs.Add(1)
		p.recordFailure(time.Now(), c.opts.FailThreshold, c.opts.Cooldown)
		return fmt.Errorf("cluster: peer %s: %w", p.name, err)
	}
	p.recordSuccess()
	return nil
}

// peerEvalLine decodes either kind of peer-eval response line: a
// result carries an index (-1 when absent), the summary a done flag.
type peerEvalLine struct {
	PeerEvalResult
	Done *bool `json:"done"`
}

// decodePeerEval parses a peer-eval NDJSON response into n outcomes,
// requiring every index exactly once plus the final summary line — a
// short response (peer died mid-stream) is an exchange failure, so the
// caller recomputes locally instead of treating absence as data.
func decodePeerEval(r io.Reader, n int) ([]PeerOutcome, error) {
	outs := make([]PeerOutcome, n)
	filled := make([]bool, n)
	got := 0
	sawSummary := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if sawSummary {
			return nil, fmt.Errorf("cluster: data after peer-eval summary line")
		}
		index, out, summary, err := decodeLine(line)
		if err != nil {
			return nil, err
		}
		if summary {
			sawSummary = true
			continue
		}
		if index < 0 || index >= n {
			return nil, fmt.Errorf("cluster: peer-eval index %d outside batch of %d", index, n)
		}
		if filled[index] {
			return nil, fmt.Errorf("cluster: duplicate peer-eval index %d", index)
		}
		filled[index] = true
		got++
		outs[index] = out
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawSummary || got != n {
		return nil, fmt.Errorf("cluster: short peer-eval response (%d of %d points, summary=%v)", got, n, sawSummary)
	}
	return outs, nil
}

// decodeLine reads one non-blank response line: a result's index and
// outcome, or the summary.
func decodeLine(line []byte) (index int, out PeerOutcome, summary bool, err error) {
	if index, bits, hit, ok := parseResultLine(line); ok {
		return index, PeerOutcome{Value: math.Float64frombits(bits), CacheHit: hit}, false, nil
	}
	l := peerEvalLine{PeerEvalResult: PeerEvalResult{Index: -1}}
	if err := json.Unmarshal(line, &l); err != nil {
		return 0, out, false, fmt.Errorf("cluster: peer-eval line: %w", err)
	}
	if l.Done != nil {
		if !*l.Done || l.Index != -1 {
			return 0, out, false, fmt.Errorf("cluster: malformed peer-eval summary %.64q", line)
		}
		return 0, out, true, nil
	}
	if l.Error != "" {
		return l.Index, PeerOutcome{Value: math.NaN(), Err: fmt.Errorf("cluster: peer evaluation: %s", l.Error)}, false, nil
	}
	v, err := ParseBits(l.Bits)
	if err != nil {
		return 0, out, false, err
	}
	return l.Index, PeerOutcome{Value: v, CacheHit: l.CacheHit}, false, nil
}

// parseResultLine reads a result line in exactly the bytes
// AppendPeerEvalResult writes for a value,
// {"index":N,"bits":"<16 lowercase hex digits>"} with an optional
// ,"cache_hit":true before the brace, without encoding/json's
// reflection. ok is false for any other line, which decodeLine then
// reads with encoding/json; the two agree on every line this accepts.
func parseResultLine(line []byte) (index int, bits uint64, cacheHit, ok bool) {
	rest, found := bytes.CutPrefix(line, []byte(`{"index":`))
	if !found {
		return 0, 0, false, false
	}
	n := 0
	for ; n < len(rest) && n < 10 && '0' <= rest[n] && rest[n] <= '9'; n++ {
		index = index*10 + int(rest[n]-'0')
	}
	if n == 0 || n == 10 || (n > 1 && rest[0] == '0') {
		return 0, 0, false, false // no digits, too many, or a leading zero JSON forbids
	}
	rest, found = bytes.CutPrefix(rest[n:], []byte(`,"bits":"`))
	if !found || len(rest) < 17 || rest[16] != '"' {
		return 0, 0, false, false
	}
	for _, c := range rest[:16] {
		switch {
		case '0' <= c && c <= '9':
			bits = bits<<4 | uint64(c-'0')
		case 'a' <= c && c <= 'f':
			bits = bits<<4 | uint64(c-'a'+10)
		default:
			return 0, 0, false, false
		}
	}
	switch string(rest[17:]) {
	case "}":
		return index, bits, false, true
	case `,"cache_hit":true}`:
		return index, bits, true, true
	}
	return 0, 0, false, false
}

// CountLocal/CountRemote/CountFallback feed the remote-vs-local routing
// counters from the server's router, which owns the partition decision.
func (c *Cluster) CountLocal(n int)    { c.localPts.Add(uint64(n)) }
func (c *Cluster) CountRemote(n int)   { c.remotePts.Add(uint64(n)) }
func (c *Cluster) CountFallback(n int) { c.fallback.Add(uint64(n)) }
