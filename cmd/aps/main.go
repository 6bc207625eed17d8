// Command aps runs the complete Analysis-Plus-Simulation flow of Fig. 6
// for a named workload: (1) characterize the application on the simulator
// with the C-AMAT detector, (2) solve the C²-Bound analytic optimization,
// (3) simulate only the issue-width × ROB slice at the analytic design
// point, and report the chosen configuration together with the simulation
// budget spent.
//
// Usage:
//
//	aps [-workload name] [-ws bytes] [-refs n] [-per k] [-fseq f]
//	    [-radius r] [-truth] [-timeout d] [-checkpoint file] [-resume]
//	    [-workers n] [-cache n] [-trace out.json] [-metrics]
//	    [-cpuprofile out.pprof]
//
// Observability: -trace writes a Chrome trace_event JSON of the run's
// span hierarchy (load it in chrome://tracing or Perfetto), -metrics
// prints the metrics registry snapshot on exit (its engine_* counters
// match the engine statistics line exactly), and -cpuprofile records a
// pprof CPU profile.
//
// With -truth the full design space is also swept to ground-truth the APS
// design (expensive: per^6 simulations). -timeout bounds the whole run;
// when it fires, whatever was evaluated so far is reported (and saved to
// the -checkpoint file, if given, from where a later -resume run picks the
// sweep back up).
//
// One evaluation engine serves the whole command: the analytic optimizer,
// the APS slice and the -truth sweep share its memo cache, so every slice
// configuration APS already simulated is served from cache during the
// truth sweep. -workers bounds the engine's parallelism and -cache its
// memo capacity (0 = default, negative = disable); an engine statistics
// line is printed on exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"repro/internal/aps"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/obs"
)

func main() {
	workload := flag.String("workload", "fluidanimate", "workload to design for")
	ws := flag.Uint64("ws", 8<<20, "working set bytes")
	refs := flag.Int("refs", 8000, "references per characterization/DSE simulation")
	per := flag.Int("per", 4, "design-space values per dimension (10 = paper scale)")
	fseq := flag.Float64("fseq", 0.05, "sequential fraction (from the app's structure)")
	radius := flag.Int("radius", 0, "extra neighborhood radius around the analytic point")
	truth := flag.Bool("truth", false, "also brute-force the space to measure APS error")
	timeout := flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
	checkpoint := flag.String("checkpoint", "", "periodically save sweep state to this JSON file")
	resume := flag.Bool("resume", false, "skip configurations already recorded in -checkpoint")
	workers := flag.Int("workers", 0, "simulation parallelism (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache", 0, "engine memo-cache capacity (0 = default, negative = disable)")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file")
	metricsOut := flag.Bool("metrics", false, "print the metrics registry snapshot on exit")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(0)
		ctx = obs.ContextWithTracer(ctx, tracer)
		defer func() {
			if err := tracer.WriteChromeTraceFile(*traceOut); err != nil {
				log.Printf("trace: %v", err)
				return
			}
			fmt.Printf("trace: %d spans written to %s (%d dropped)\n",
				tracer.Len(), *traceOut, tracer.Dropped())
		}()
	}
	var metrics *obs.Registry
	if *metricsOut {
		metrics = obs.NewRegistry()
		ctx = obs.ContextWithMetrics(ctx, metrics)
		defer func() {
			fmt.Println("\nmetrics:")
			if err := metrics.WriteText(os.Stdout); err != nil {
				log.Printf("metrics: %v", err)
			}
		}()
	}
	if *cpuProfile != "" {
		stopProf, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer func() {
			if err := stopProf(); err != nil {
				log.Printf("cpuprofile: %v", err)
			}
		}()
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *resume && *checkpoint == "" {
		log.Fatal("-resume requires -checkpoint")
	}

	start := time.Now()

	// Step 1: characterization (Fig. 6 lines 1-3).
	fmt.Printf("[1/3] characterizing %q with the C-AMAT detector...\n", *workload)
	app, err := aps.CharacterizeCtx(ctx, aps.CharacterizeOptions{
		Workload: *workload, WSBytes: *ws, Refs: *refs, Fseq: *fseq, Seed: 17,
	})
	if err != nil {
		log.Fatalf("characterize: %v", err)
	}
	fmt.Printf("      fmem=%.3f C_H=%.2f C_M=%.2f pMR/MR=%.2f pAMP/AMP=%.2f g~N^%.2g\n",
		app.Fmem, app.CH, app.CM, app.PMRRatio, app.PAMPRatio, app.GOrder)

	// The DSE compares fixed-size execution times, so the model used for
	// the analytic phase carries g = 1 (the workload does not grow with
	// the configuration under test).
	app.G = func(float64) float64 { return 1 }
	app.GOrder = 0
	m := core.Model{Chip: chip.DefaultConfig(), App: app}

	if *per < 1 || *per > 10 {
		log.Fatalf("space: -per needs 1..10 values per dimension, got %d", *per)
	}
	fm, err := model.New(model.FamilyC2Bound, model.Config{Chip: m.Chip, App: m.App})
	if err != nil {
		log.Fatalf("model: %v", err)
	}
	space, err := dse.SpaceFor(fm, *per)
	if err != nil {
		log.Fatalf("space: %v", err)
	}
	eval, err := dse.NewSimEvaluator(m.Chip, *workload, *ws, 2, *refs, 17)
	if err != nil {
		log.Fatalf("evaluator: %v", err)
	}

	// One engine for the whole command: APS and the optional truth sweep
	// share its cache, so -truth never re-simulates the APS slice.
	eng := engine.New(engine.Options{Workers: *workers, CacheSize: *cacheSize, Tracer: tracer, Metrics: metrics})
	defer func() { fmt.Println(eng.Stats()) }()

	// Steps 2-3: analytic optimization + simulated slice.
	fmt.Printf("[2/3] solving the C²-Bound optimization and snapping onto the %d-point grid...\n", space.Size())
	opts := aps.Options{Engine: eng, Radius: *radius, Optimize: core.Options{MaxN: 64}}
	opts.Sweep.CheckpointPath = *checkpoint
	opts.Sweep.Resume = *resume
	res, err := aps.RunCtx(ctx, m, space, eval, opts)
	if err != nil {
		reportSweep(res.Report)
		log.Fatalf("aps: %v", err)
	}
	fmt.Printf("[3/3] simulated %d configurations (analytic phase scored %d grid points).\n",
		res.Simulations, res.AnalyticPoints)
	reportSweep(res.Report)
	fmt.Println()

	p := res.BestPoint
	fmt.Printf("chosen design: A0=%.3g A1=%.3g A2=%.3g mm², N=%.0f cores, issue=%[5]g, ROB=%.0f\n",
		p[0], p[1], p[2], p[3], p[4], p[5])
	fmt.Printf("simulated time: %.0f cycles\n", res.BestValue)
	if res.Simulations > 0 {
		fmt.Printf("design space: %d points; APS explored %d (%.1fx reduction)\n",
			res.SpaceSize, res.Simulations, float64(res.SpaceSize)/float64(res.Simulations))
	} else {
		fmt.Printf("design space: %d points; every slice point restored from checkpoint\n", res.SpaceSize)
	}

	if *truth {
		fmt.Printf("\nbrute-forcing all %d configurations for ground truth...\n", space.Size())
		truthOpts := dse.SweepOptions{Engine: eng, Resume: *resume}
		if *checkpoint != "" {
			truthOpts.CheckpointPath = *checkpoint + ".truth"
		}
		values, rep, err := dse.SweepCtx(ctx, eval, space, nil, truthOpts)
		if err != nil {
			reportSweep(rep)
			log.Fatalf("truth sweep: %v", err)
		}
		reportSweep(rep)
		relErr, err := aps.RelativeError(res.BestValue, values)
		if err != nil {
			log.Fatalf("relative error: %v", err)
		}
		fmt.Printf("APS design is within %.2f%% of the true optimum (paper: 5.96%%)\n", 100*relErr)
	}
	fmt.Printf("\nwall time: %v\n", time.Since(start).Round(time.Millisecond))
}

// reportSweep prints the resilience summary of a simulated sweep when
// anything noteworthy happened (retries, failures, cancellation, resume).
func reportSweep(rep dse.SweepReport) {
	if rep.Total == 0 {
		return
	}
	if rep.Retries > 0 || rep.Resumed > 0 || rep.CacheHits > 0 || len(rep.Failed) > 0 || rep.Canceled {
		fmt.Printf("      sweep: %d/%d evaluated (%d resumed, %d from cache, %d retries, %d failed, %d pending)\n",
			len(rep.Completed), rep.Total, rep.Resumed, rep.CacheHits, rep.Retries, len(rep.Failed), len(rep.Pending))
	}
	for _, f := range rep.Failed {
		fmt.Printf("      index %d failed after %d attempts: %s\n", f.Index, f.Attempts, f.Err)
	}
	if rep.Canceled {
		fmt.Printf("      sweep interrupted; rerun with -resume to continue\n")
	}
}
