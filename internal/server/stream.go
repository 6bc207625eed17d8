package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// jsonFloat is a float64 that survives JSON encoding for the full IEEE
// range: finite values render as plain numbers, while NaN and ±Inf —
// legitimate evaluation results (an infeasible configuration scores
// +Inf) that encoding/json rejects — render as quoted strings in
// strconv's shortest round-trip format, mirroring the checkpoint file
// convention of internal/dse.
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	return appendJSONFloat(nil, float64(f)), nil
}

// appendJSONFloat appends v in jsonFloat's wire form.
func appendJSONFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b = append(b, '"')
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
		return append(b, '"')
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// UnmarshalJSON implements json.Unmarshaler, accepting both encodings.
func (f *jsonFloat) UnmarshalJSON(data []byte) error {
	s := string(data)
	if len(s) >= 2 && s[0] == '"' {
		unquoted, err := strconv.Unquote(s)
		if err != nil {
			return fmt.Errorf("server: float string %s: %w", s, err)
		}
		s = unquoted
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("server: float %s: %w", s, err)
	}
	*f = jsonFloat(v)
	return nil
}

// jsonFloats converts a slice for response payloads.
func jsonFloats(vs []float64) []jsonFloat {
	out := make([]jsonFloat, len(vs))
	for i, v := range vs {
		out[i] = jsonFloat(v)
	}
	return out
}

// The flush rule for pre-encoded lines (batch and peer-eval results):
// they collect in one buffer that is written and flushed once it holds
// flushBytes, or flushEvery after the first line that found it empty,
// whichever comes first. The byte cap bounds the buffer; the time cap
// keeps a slow evaluator's finished points streaming.
const (
	flushBytes = 32 << 10
	flushEvery = 5 * time.Millisecond
)

// lineBufs recycles the line buffers of finished responses.
var lineBufs = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, flushBytes)
	return &b
}}

// ndjsonWriter emits newline-delimited JSON. Frames passed to Emit
// (summaries, sweep progress and results) are written and flushed at
// once; lines passed to Write wait in a pooled buffer under the flush
// rule above. Every path flushes what is buffered first, so the stream
// keeps the order of the calls. A timer goroutine may flush too, so all
// access to the ResponseWriter goes through mu, and Close ends it:
// nothing touches the ResponseWriter after Close returns.
type ndjsonWriter struct {
	w     http.ResponseWriter
	flush http.Flusher // nil when the ResponseWriter cannot flush

	mu     sync.Mutex
	buf    *[]byte     // pending lines; nil after Close
	timer  *time.Timer // the time cap, created on first use
	armed  bool        // the timer will fire for the pending lines
	closed bool
	err    error
}

// newNDJSONWriter prepares the response for streaming: the NDJSON
// content type and an immediate header write, so admission and
// validation failures must be rendered before this call. The caller
// must Close the writer before the handler returns.
func newNDJSONWriter(w http.ResponseWriter) *ndjsonWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusOK)
	flush, _ := w.(http.Flusher)
	return &ndjsonWriter{w: w, flush: flush, buf: lineBufs.Get().(*[]byte)}
}

// Emit encodes frame as one line (the bytes json.Encoder writes) and
// sends it, with any pending lines before it, straight to the client.
// After the first failed write (client gone) all further output is
// dropped.
func (n *ndjsonWriter) Emit(frame interface{}) {
	data, err := json.Marshal(frame)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || n.err != nil {
		return
	}
	if err != nil {
		n.err = err
		return
	}
	*n.buf = append(append(*n.buf, data...), '\n')
	n.flushLocked()
}

// Write queues pre-encoded lines (each ending in '\n') under the flush
// rule.
func (n *ndjsonWriter) Write(lines []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || n.err != nil || len(lines) == 0 {
		return
	}
	*n.buf = append(*n.buf, lines...)
	switch {
	case len(*n.buf) >= flushBytes:
		n.flushLocked()
	case !n.armed:
		n.armed = true
		if n.timer == nil {
			n.timer = time.AfterFunc(flushEvery, n.tick)
		} else {
			n.timer.Reset(flushEvery)
		}
	}
}

// tick is the time cap firing.
func (n *ndjsonWriter) tick() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.closed {
		n.flushLocked()
	}
}

// flushLocked writes and flushes the pending lines.
func (n *ndjsonWriter) flushLocked() {
	if n.armed {
		n.armed = false
		n.timer.Stop()
	}
	if len(*n.buf) == 0 {
		return
	}
	if n.err == nil {
		if _, err := n.w.Write(*n.buf); err != nil {
			n.err = err
		} else if n.flush != nil {
			n.flush.Flush()
		}
	}
	*n.buf = (*n.buf)[:0]
}

// Close flushes the pending lines, stops the time cap and recycles the
// buffer; an oversized one (a large sweep frame) is left to the GC. A timer callback already waiting for mu finds the writer
// closed and returns without writing.
func (n *ndjsonWriter) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.flushLocked()
	n.closed = true
	if cap(*n.buf) <= 2*flushBytes {
		lineBufs.Put(n.buf)
	}
	n.buf = nil
}
