package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// splitmix64 is the benchmark's seeded generator: every workload input
// (points, sample indices, model overrides) is derived from --seed
// through it, so the same seed always yields the same inputs.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// unit returns a value in [0, 1).
func (s *splitmix64) unit() float64 { return float64(s.next()>>11) / (1 << 53) }

// workloadFseq derives the sequential fraction of the analytic
// workloads' model from the seed: the paper's fluidanimate profile with
// fseq drawn from [0.02, 0.08], so a different seed is a different
// model fingerprint and a cold cache.
func workloadFseq(seed uint64) float64 {
	r := splitmix64(seed ^ 0xf5e9)
	return 0.02 + 0.06*r.unit()
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// span is one benchmark-side timing record around a call into a layer.
// Spans are relative to the recorder's origin; Parent is the index of
// the enclosing span (-1 for a root).
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
}

// recorder keeps spans in memory; a nil recorder records nothing, so
// untraced runs pay one branch per call site.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent})
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = now
}

// get returns span i.
func (r *recorder) get(i int) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[i]
}

// children returns the closed spans named name whose parent is p.
func (r *recorder) children(p int, name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Parent == p && s.Name == name && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// covered is the length of the union of the spans' intervals: the time
// during which at least one of them was open.
func covered(spans []span) time.Duration {
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total, curStart, curEnd time.Duration
	open := false
	for _, sp := range s {
		switch {
		case !open:
			curStart, curEnd, open = sp.Start, sp.End, true
		case sp.Start > curEnd:
			total += curEnd - curStart
			curStart, curEnd = sp.Start, sp.End
		case sp.End > curEnd:
			curEnd = sp.End
		}
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// writeFile writes the spans as JSON (benchmark-side trace output).
func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ladderReps is how many times each ladder rung is timed (on serve-mixed,
// how many passes each rung makes over the bulk request bodies).
const ladderReps = 3

// rung is one layer of a ladder: the cumulative ns per point measured
// with that layer on top of the ones below it.
type rung struct {
	layer string
	ns    float64
}

// ladder attributes the top rung's time to layers in the framing bound
// → achieved → efficiency → bottleneck: the lowest rung is the bound,
// each higher rung adds its difference, and the layer adding the most
// is the bottleneck. It flags a rung that is more than 5% cheaper than
// the one below it, because that layer's attribution would be negative
// (timing noise, not a wrong output). It records a mismatch when the
// differences do not add up to the top rung.
func ladder(name string, rungs []rung, o *outcome) []string {
	bound, top := rungs[0].ns, rungs[len(rungs)-1].ns
	lines := []string{fmt.Sprintf("ladder %s: bound %s %.1f ns/pt, achieved %.1f ns/pt, efficiency %.3f",
		name, rungs[0].layer, bound, top, bound/top)}
	sum, worst, worstLayer := bound, bound, rungs[0].layer
	for i := 1; i < len(rungs); i++ {
		d := rungs[i].ns - rungs[i-1].ns
		sum += d
		lines = append(lines, fmt.Sprintf("  + %-8s %10.1f ns/pt (%5.1f%%)", rungs[i].layer, d, 100*d/top))
		if d < -0.05*rungs[i-1].ns {
			lines = append(lines, fmt.Sprintf("  ! %s rung is cheaper than the %s rung below it", rungs[i].layer, rungs[i-1].layer))
		}
		if d > worst {
			worst, worstLayer = d, rungs[i].layer
		}
	}
	if math.Abs(sum-top) > 1e-6*top {
		o.mismatch("ladder %s: rung differences add up to %v ns/pt, top rung is %v", name, sum, top)
	}
	return append(lines, fmt.Sprintf("  bottleneck: %s (%.1f%% of the achieved time)", worstLayer, 100*worst/top))
}
