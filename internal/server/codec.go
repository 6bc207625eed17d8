package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/engine"
)

// The point codec of the evaluation routes. Requests decode their
// coordinates through pointParser rather than by reflection: one
// backing []float64 per batch, every coordinate read with the same
// strconv.ParseFloat call encoding/json makes (so values are
// bit-identical), and null refused where encoding/json would silently
// leave a zero. Batch result lines are appended to a byte slice by
// hand, byte for byte what json.Encoder writes for BatchResult.

// evaluateWire, batchWire and peerEvalWire are the request bodies as the
// server decodes them: the exported request types with the coordinate
// member re-declared at the top level, which encoding/json prefers over
// the embedded [][]float64 field of the same name.
type evaluateWire struct {
	EvaluateRequest
	Point coords `json:"point"`
}

type batchWire struct {
	BatchRequest
	Points pointSlab `json:"points"`
}

type peerEvalWire struct {
	cluster.PeerEvalRequest
	Points pointSlab `json:"points"`
}

// coords is one design point: a JSON array of numbers.
type coords []float64

// UnmarshalJSON implements json.Unmarshaler.
func (c *coords) UnmarshalJSON(data []byte) error {
	p := pointParser{data: data, name: "point"}
	if p.null() {
		*c = nil
		return p.end()
	}
	pt, err := p.point(make([]float64, 0, bytes.Count(data, []byte{','})+1), -1)
	if err != nil {
		return err
	}
	*c = pt
	return p.end()
}

// pointSlab is an array of design points whose coordinates share one
// backing array. A null point decodes as a nil one, as it does into
// [][]float64, and fails the dimension check.
type pointSlab [][]float64

// UnmarshalJSON implements json.Unmarshaler.
func (s *pointSlab) UnmarshalJSON(data []byte) error {
	p := pointParser{data: data, name: "points"}
	if p.null() {
		*s = nil
		return p.end()
	}
	if p.peek() != '[' {
		return fmt.Errorf("points: want an array of points, not %s", p.found())
	}
	p.pos++
	// Upper bounds for well-formed input, so neither slice grows: every
	// point opens a bracket, and every coordinate but the first follows
	// a comma.
	pts := make([][]float64, 0, bytes.Count(data, []byte{'['})-1)
	vals := make([]float64, 0, bytes.Count(data, []byte{','})+1)
	if p.peek() == ']' {
		p.pos++
		*s = pts
		return p.end()
	}
	for i := 0; ; i++ {
		var pt []float64
		if !p.null() {
			start := len(vals)
			var err error
			if vals, err = p.point(vals, i); err != nil {
				return err
			}
			pt = vals[start:len(vals):len(vals)]
		}
		pts = append(pts, pt)
		switch p.peek() {
		case ',':
			p.pos++
		case ']':
			p.pos++
			*s = pts
			return p.end()
		default:
			return fmt.Errorf("points: want ',' or ']' after point %d, not %s", i, p.found())
		}
	}
}

// pointParser walks the raw JSON of one point or an array of points.
// encoding/json has checked the syntax before UnmarshalJSON runs, so
// the parser only tells the accepted shapes from the rest; it never
// reads past the input either way.
type pointParser struct {
	data []byte
	pos  int
	name string // the member errors name: "point" or "points"
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (p *pointParser) peek() byte {
	for p.pos < len(p.data) {
		switch c := p.data[p.pos]; c {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return c
		}
	}
	return 0
}

// null consumes a null literal if one is next.
func (p *pointParser) null() bool {
	if p.peek() == 'n' && bytes.HasPrefix(p.data[p.pos:], []byte("null")) {
		p.pos += 4
		return true
	}
	return false
}

// end requires nothing but whitespace after the value.
func (p *pointParser) end() error {
	if p.peek() != 0 {
		return fmt.Errorf("%s: trailing %s", p.name, p.found())
	}
	return nil
}

// found names the JSON value starting at the cursor for error messages.
func (p *pointParser) found() string {
	switch p.peek() {
	case 0:
		return "end of input"
	case 'n':
		return "null"
	case 't', 'f':
		return "a boolean"
	case '"':
		return "a string"
	case '{':
		return "an object"
	case '[':
		return "an array"
	default:
		return strconv.QuoteRune(rune(p.data[p.pos]))
	}
}

// pointAt names point i of the batch (i < 0: the single point).
func (p *pointParser) pointAt(i int) string {
	if i < 0 {
		return p.name
	}
	return fmt.Sprintf("%s[%d]", p.name, i)
}

// point appends the coordinates of the JSON array of numbers at the
// cursor (point i of the batch) to dst.
func (p *pointParser) point(dst []float64, i int) ([]float64, error) {
	if p.peek() != '[' {
		return dst, fmt.Errorf("%s: want an array of numbers, not %s", p.pointAt(i), p.found())
	}
	p.pos++
	if p.peek() == ']' {
		p.pos++
		return dst, nil
	}
	for j := 0; ; j++ {
		v, err := p.coord(i, j)
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
		switch p.peek() {
		case ',':
			p.pos++
		case ']':
			p.pos++
			return dst, nil
		default:
			return dst, fmt.Errorf("%s[%d]: want ',' or ']' after it, not %s", p.pointAt(i), j, p.found())
		}
	}
}

// coord parses the number at the cursor: coordinate j of point i.
func (p *pointParser) coord(i, j int) (float64, error) {
	p.peek()
	start := p.pos
	for p.pos < len(p.data) && isNumberByte(p.data[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return 0, fmt.Errorf("%s[%d]: %s is not a number", p.pointAt(i), j, p.found())
	}
	v, err := strconv.ParseFloat(string(p.data[start:p.pos]), 64)
	if err != nil {
		return 0, fmt.Errorf("%s[%d]: %w", p.pointAt(i), j, err)
	}
	return v, nil
}

// isNumberByte reports whether c can occur in a JSON number.
func isNumberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

// appendBatchLine appends the result line for outcome o of point i:
// the bytes json.Encoder writes for the BatchResult the line carries,
// newline included.
func appendBatchLine(b []byte, i int, o engine.Outcome) []byte {
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(i), 10)
	if o.Err == nil {
		b = append(b, `,"value":`...)
		b = appendJSONFloat(b, o.Value)
	}
	if o.CacheHit {
		b = append(b, `,"cache_hit":true`...)
	}
	if o.Shared {
		b = append(b, `,"shared":true`...)
	}
	if o.Attempts != 0 {
		b = append(b, `,"attempts":`...)
		b = strconv.AppendInt(b, int64(o.Attempts), 10)
	}
	if o.Err != nil {
		_, body := classify(o.Err)
		// An ErrorBody always encodes; json.Marshal escapes HTML exactly
		// as json.Encoder does.
		data, _ := json.Marshal(body)
		b = append(append(b, `,"error":`...), data...)
	}
	return append(b, "}\n"...)
}

// batchLines re-sequences batch outcomes from completion order into
// submission order and writes each contiguous run as result lines.
type batchLines struct {
	out   *ndjsonWriter
	outs  []engine.Outcome // outcomes that arrived ahead of next
	ready []bool
	next  int
	line  []byte // the encoded run, reused
}

func newBatchLines(out *ndjsonWriter, n int) *batchLines {
	return &batchLines{out: out, outs: make([]engine.Outcome, n), ready: make([]bool, n)}
}

// add accepts the outcome of point i and writes the longest run now
// contiguous with the lines already written.
func (q *batchLines) add(i int, o engine.Outcome) {
	q.outs[i], q.ready[i] = o, true
	q.line = q.line[:0]
	for q.next < len(q.ready) && q.ready[q.next] {
		q.line = appendBatchLine(q.line, q.next, q.outs[q.next])
		q.outs[q.next] = engine.Outcome{}
		q.next++
	}
	q.out.Write(q.line)
}
