// Command perfbench is the repository's benchmark: one process runs one
// workload for a fixed time, checks every output it measured for
// correctness, and prints its metrics by name with their units. The
// last line of standard output is the JSON result
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// carrying the end-to-end metrics (--trace 0) or the per-layer metrics
// of a traced run (--trace 1). BENCHMARK.json at the repository root
// lists both sets; README.md in this directory explains each workload,
// each metric and the layer it attributes.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload aps-paper|sweep-paper|serve-mixed \
//	    --seed N --seconds S --trace 0|1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	c2bound "repro"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics every workload reports with tracing off; the
// README defines each one per workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"success_ratio", "ratio"},
	{"op_p50_ms", "ms"},
	{"evals_per_s", "1/s"},
}

// perLayer are the metrics of a traced run. A workload reports 0 for
// the metrics of a layer or an operation it does not exercise (the sim
// layer on sweep-paper, the server on aps-paper, …).
var perLayer = []metricSpec{
	// Workload headline figures, measured in the untraced half of the
	// traced run.
	{"aps_s", "s"},
	{"aps_simulations", "count"},
	{"sweep_first_pts_per_s", "1/s"},
	{"sweep_repeat_pts_per_s", "1/s"},
	{"serve_batch_evals_per_s", "1/s"},
	{"serve_batch_p50_ms", "ms"},
	{"serve_single_p50_ms", "ms"},
	{"serve_single_p90_ms", "ms"},
	{"fail_ratio", "ratio"},
	// aps-paper.
	{"aps.characterize_s", "s"},
	{"aps.run_s", "s"},
	{"aps.analytic_self_s", "s"},
	{"sim.calls", "count"},
	{"sim.busy_s", "s"},
	{"sim.call_p50_ms", "ms"},
	{"engine.requests", "count"},
	{"engine.evaluations", "count"},
	{"engine.hit_ratio", "ratio"},
	// sweep-paper ladder.
	{"core.kernel_ns_per_pt", "ns"},
	{"engine.batch_ns_per_pt", "ns"},
	{"dse.sweep_ns_per_pt", "ns"},
	{"sweep.efficiency", "ratio"},
	{"engine.evictions", "count"},
	{"engine.eval_wall_s", "s"},
	{"engine.allocs_per_pt", "count"},
	// serve-mixed ladder and streams.
	{"server.handler_batch_ms_p50", "ms"},
	{"server.inproc_ns_per_pt", "ns"},
	{"engine.warm_ns_per_pt", "ns"},
	{"server.wire_ns_per_pt", "ns"},
	{"server.resp_bytes_per_pt", "bytes"},
	{"server.allocs_per_pt", "count"},
	{"serve.efficiency", "ratio"},
	{"server.handler_single_ms_p50", "ms"},
	{"server.handler_single_ms_p99", "ms"},
	{"engine.hit_ratio.batch", "ratio"},
	{"engine.hit_ratio.single", "ratio"},
	{"server.shed", "count"},
	{"server.errors", "count"},
	{"loadgen.late_p99_ms", "ms"},
	// Every workload.
	{"obs.trace_overhead_pct", "%"},
}

// scale sizes the workloads. paperScale is the benchmark; the smoke test
// shrinks it.
type scale struct {
	apsPer, apsRefs int // APS space values per dimension, refs per simulation
	sweepPer        int // sweep space values per dimension (0: the 10^6-point paper space)
	servePer        int // warmed serving space values per dimension
	batchPoints     int // points per bulk batch request
	singleRate      float64
}

var paperScale = scale{apsPer: 10, apsRefs: 8000, servePer: 6, batchPoints: 1024, singleRate: 500}

// config is one benchmark invocation.
type config struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	scale   scale
	// wrap, when set, wraps the evaluator whose outputs the workload's
	// correctness gate checks; the self-test plugs a bit-flipping
	// wrapper in here to prove the gate fails.
	wrap func(c2bound.CtxEvaluator) c2bound.CtxEvaluator
}

func (c config) wrapped(ev c2bound.CtxEvaluator) c2bound.CtxEvaluator {
	if c.wrap == nil {
		return ev
	}
	return c.wrap(ev)
}

// outcome is what a workload measured and checked.
type outcome struct {
	attempted, failed int
	mismatches        []string // correctness-gate failures
	e2e, layer        map[string]float64
	spans             *recorder // benchmark-side spans of a traced run
	notes             []string  // human-readable lines printed before the result
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// mismatch records a correctness-gate failure.
func (o *outcome) mismatch(format string, args ...any) {
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type workload func(ctx context.Context, cfg config) (*outcome, error)

var workloads = map[string]workload{
	"aps-paper":   runAPS,
	"sweep-paper": runSweep,
	"serve-mixed": runServe,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult assembles the printed result; it fails when a workload
// left an end-to-end metric unset, which is a benchmark bug.
func buildResult(o *outcome, trace bool) (result, error) {
	res := result{
		Correct:   len(o.mismatches) == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	if trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{o.layer[m.name], m.unit}
		}
		return res, nil
	}
	for _, m := range endToEnd {
		v, ok := o.e2e[m.name]
		if !ok {
			return res, fmt.Errorf("workload did not report %s", m.name)
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	return res, nil
}

// environment describes where the numbers came from.
func environment(seed uint64) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"seed":       seed,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpu,
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: aps-paper, sweep-paper or serve-mixed")
	seed := flag.Uint64("seed", 0, "workload seed (inputs are derived from it)")
	secs := flag.Int("seconds", 30, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: time.Duration(*secs) * time.Second, trace: *trace == 1, scale: paperScale}
	env, _ := json.Marshal(environment(cfg.seed))
	fmt.Printf("env %s workload=%s\n", env, *name)

	o, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, n := range o.notes {
		fmt.Println(n)
	}
	for _, m := range o.mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: correctness: %s\n", m)
	}
	if o.spans != nil {
		if err := o.spans.writeFile(filepath.Join(".bench_build", "spans-"+*name+".json")); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
	}
	res, err := buildResult(o, cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
