package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"testing"
)

// encodePeerEval renders a peer-eval response the way the server's
// handler does: one AppendPeerEvalResult line per value, then the
// summary.
func encodePeerEval(values []float64, hits []bool, errs []error) []byte {
	var b []byte
	failures := 0
	for i, v := range values {
		if errs[i] != nil {
			failures++
		}
		b = AppendPeerEvalResult(b, i, v, hits[i], errs[i])
	}
	sum, _ := json.Marshal(PeerEvalSummary{Done: true, Points: len(values), Errors: failures})
	return append(append(b, sum...), '\n')
}

// FuzzDecodePeerEval fuzzes the one peer wire format a coordinator
// reads. The decoder must never panic; a response it accepts must carry
// every index of the batch exactly once and end in a done summary; and
// values encoded by AppendPeerEvalResult must decode bit-identically,
// NaN payloads, ±0 and ±Inf included.
func FuzzDecodePeerEval(f *testing.F) {
	values := []float64{math.Float64frombits(0x7ff8_0000_dead_beef), math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1.5}
	valid := encodePeerEval(values, []bool{false, true, false, false, true}, []error{nil, nil, nil, nil, errors.New(`bad "point"`)})
	summary := `{"done":true,"points":2,"errors":0}` + "\n"
	line0 := `{"index":0,"bits":"3ff0000000000000"}` + "\n"
	line1 := `{"index":1,"bits":"8000000000000000","cache_hit":true}` + "\n"
	seeds := []struct {
		data string
		n    uint8
	}{
		{string(valid), uint8(len(values))},
		{string(valid[:len(valid)-12]), uint8(len(values))}, // truncated
		{line0 + line1 + summary, 2},
		{line0 + line0 + summary, 2},                                          // duplicate index
		{line0 + `{"index":2,"bits":"3ff0000000000000"}` + "\n" + summary, 2}, // out of range
		{line0 + line1 + summary + line1, 2},                                  // data after the summary
		{line0 + `{"done":false}` + "\n" + line1 + summary, 2},
		{line0 + `{"index":1,"done":true}` + "\n", 2},
		{line0 + `{"index":01,"bits":"3FF0000000000000"}` + "\n" + summary, 2}, // leading zero, upper-case hex
	}
	for _, s := range seeds {
		f.Add([]byte(s.data), s.n, uint64(0x7ff0_0000_0000_0001), true)
	}
	f.Fuzz(func(t *testing.T, data []byte, n uint8, bits uint64, hit bool) {
		checkFastPath(t, data)
		if outs, err := decodePeerEval(bytes.NewReader(data), int(n)); err == nil {
			checkAccepted(t, data, int(n), outs)
		}

		v := math.Float64frombits(bits)
		resp := encodePeerEval([]float64{v, -v}, []bool{hit, !hit}, []error{nil, nil})
		outs, err := decodePeerEval(bytes.NewReader(resp), 2)
		if err != nil {
			t.Fatalf("encoded response rejected: %v\n%s", err, resp)
		}
		for i, want := range []float64{v, -v} {
			if math.Float64bits(outs[i].Value) != math.Float64bits(want) || outs[i].Err != nil {
				t.Fatalf("value %d decoded as %x (err %v), want %x", i, math.Float64bits(outs[i].Value), outs[i].Err, math.Float64bits(want))
			}
		}
		if outs[0].CacheHit != hit || outs[1].CacheHit == hit {
			t.Fatalf("cache flags %v %v, want %v %v", outs[0].CacheHit, outs[1].CacheHit, hit, !hit)
		}
	})
}

// checkAccepted re-reads an accepted response line by line: every
// result line's index is in [0, n) and appears once, every index
// appears, and the last non-blank line is the only summary, done.
func checkAccepted(t *testing.T, data []byte, n int, outs []PeerOutcome) {
	t.Helper()
	if len(outs) != n {
		t.Fatalf("accepted %d outcomes for a batch of %d", len(outs), n)
	}
	seen := make([]int, n)
	summaries, lastIsSummary := 0, false
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var l struct {
			Index *int  `json:"index"`
			Done  *bool `json:"done"`
		}
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("accepted an undecodable line %q: %v", sc.Bytes(), err)
		}
		lastIsSummary = l.Done != nil
		if lastIsSummary {
			summaries++
			if !*l.Done {
				t.Fatalf("accepted a summary that is not done: %q", sc.Bytes())
			}
			continue
		}
		if l.Index == nil || *l.Index < 0 || *l.Index >= n {
			t.Fatalf("accepted a result line without an index in [0, %d): %q", n, sc.Bytes())
		}
		seen[*l.Index]++
	}
	if summaries != 1 || !lastIsSummary {
		t.Fatalf("accepted %d summaries (last line summary: %v)", summaries, lastIsSummary)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("accepted index %d %d times", i, c)
		}
	}
}

// checkFastPath holds parseResultLine to encoding/json: on every line it
// accepts, the general decoder reads a result with the same index, bits
// and cache flag.
func checkFastPath(t *testing.T, data []byte) {
	t.Helper()
	for _, line := range bytes.Split(data, []byte("\n")) {
		index, bits, hit, ok := parseResultLine(line)
		if !ok {
			continue
		}
		l := peerEvalLine{PeerEvalResult: PeerEvalResult{Index: -1}}
		if err := json.Unmarshal(line, &l); err != nil || l.Done != nil || l.Error != "" || l.Index != index || l.CacheHit != hit {
			t.Fatalf("fast path read %q as index %d hit %v; encoding/json: %+v (err %v)", line, index, hit, l, err)
		}
		if want, err := strconv.ParseUint(l.Bits, 16, 64); err != nil || want != bits {
			t.Fatalf("fast path read %q as bits %x; ParseUint: %x (err %v)", line, bits, want, err)
		}
	}
}
