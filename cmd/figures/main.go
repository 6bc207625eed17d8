// Command figures regenerates every table and figure of the paper's
// evaluation section and prints them as aligned text tables (or CSV with
// -csv). The default scale finishes in well under a minute; -full raises
// the DSE experiment to the paper's 10⁶-point design space (minutes).
//
// Usage:
//
//	figures [-only fig8,fig12,...] [-csv] [-full] [-refs n] [-per k]
//	        [-workers n] [-cache n]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/tablefmt"
)

func main() {
	only := flag.String("only", "", "comma-separated subset: fig1,table1,fig2,fig7,fig8,…,fig13,aps,regime,baselines,concurrency,validate,asym,pareto,prefetch,adapt,interference,xmodel")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	full := flag.Bool("full", false, "paper-scale DSE (10 values per dimension → 10^6 configurations)")
	refs := flag.Int("refs", 0, "workload references per simulation (0: default)")
	per := flag.Int("per", 0, "design-space values per dimension (0: default 3; -full forces 10)")
	workers := flag.Int("workers", 0, "simulation parallelism (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache", 0, "engine memo-cache capacity (0 = default, negative = disable)")
	flag.Parse()
	ctx := context.Background()

	sc := experiments.Scale{TotalRefs: *refs, SpacePer: *per, Workers: *workers, CacheSize: *cacheSize}
	if *full {
		sc.SpacePer = 10
		if sc.TotalRefs == 0 {
			sc.TotalRefs = 1000
		}
	}

	selected := map[string]bool{}
	if *only != "" {
		for _, f := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(strings.ToLower(f))] = true
		}
	}
	want := func(name string) bool { return len(selected) == 0 || selected[name] }

	type genFunc func() (*tablefmt.Table, error)
	gens := map[string]genFunc{
		"fig1": func() (*tablefmt.Table, error) {
			tb, _, err := experiments.Fig1Demo()
			return tb, err
		},
		"table1": func() (*tablefmt.Table, error) { return experiments.Table1G(), nil },
		"fig2": func() (*tablefmt.Table, error) {
			cases, err := experiments.Fig2Illustration(16, 4, 0.05, 0.4, 0.5, 6)
			if err != nil {
				return nil, err
			}
			return experiments.Fig2Table(cases), nil
		},
		"fig7": func() (*tablefmt.Table, error) {
			tb, _, err := experiments.Fig7CoreAllocation()
			return tb, err
		},
		"fig8": func() (*tablefmt.Table, error) {
			tb, _, err := experiments.Fig8()
			return tb, err
		},
		"fig9": func() (*tablefmt.Table, error) {
			tb, _, err := experiments.Fig9()
			return tb, err
		},
		"fig10": func() (*tablefmt.Table, error) {
			tb, _, err := experiments.Fig10()
			return tb, err
		},
		"fig11": func() (*tablefmt.Table, error) {
			tb, _, err := experiments.Fig11()
			return tb, err
		},
		"fig12": func() (*tablefmt.Table, error) {
			tb, _, err := experiments.Fig12SimulationCountsCtx(ctx, sc)
			return tb, err
		},
		"fig13": func() (*tablefmt.Table, error) {
			tb, _, err := experiments.Fig13APC(sc)
			return tb, err
		},
		"aps": func() (*tablefmt.Table, error) {
			tb, _, err := experiments.APSAccuracy(ctx, sc)
			return tb, err
		},
		"regime": func() (*tablefmt.Table, error) {
			tb, _, err := experiments.AblationRegimeSplit(nil)
			return tb, err
		},
		"baselines": func() (*tablefmt.Table, error) {
			tb, _, err := experiments.AblationBaselines()
			return tb, err
		},
		"concurrency": func() (*tablefmt.Table, error) {
			return experiments.AblationConcurrencySensitivity(nil)
		},
		"validate": func() (*tablefmt.Table, error) {
			tb, _, err := experiments.CrossValidate(ctx, sc, 24)
			return tb, err
		},
		"asym": func() (*tablefmt.Table, error) {
			return experiments.AsymmetricComparison(nil)
		},
		"pareto": func() (*tablefmt.Table, error) {
			tb, _, err := experiments.EnergyPareto()
			return tb, err
		},
		"prefetch": func() (*tablefmt.Table, error) {
			tb, _, err := experiments.PrefetchAblation(sc)
			return tb, err
		},
		"adapt": func() (*tablefmt.Table, error) {
			tb, _, err := experiments.PhaseAdaptation(sc)
			return tb, err
		},
		"interference": func() (*tablefmt.Table, error) {
			tb, _, err := experiments.CoScheduleInterference(sc)
			return tb, err
		},
		"xmodel": func() (*tablefmt.Table, error) {
			tb, _, err := experiments.CrossModelCtx(ctx, sc)
			return tb, err
		},
	}
	order := []string{"fig1", "table1", "fig2", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "aps", "regime", "baselines", "concurrency",
		"validate", "asym", "pareto", "prefetch", "adapt", "interference", "xmodel"}

	// Reject unknown names early.
	for name := range selected {
		if _, ok := gens[name]; !ok {
			known := make([]string, 0, len(gens))
			for k := range gens {
				known = append(known, k)
			}
			sort.Strings(known)
			log.Fatalf("unknown figure %q (known: %s)", name, strings.Join(known, ", "))
		}
	}

	for _, name := range order {
		if !want(name) {
			continue
		}
		start := time.Now()
		tb, err := gens[name]()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		if *csv {
			fmt.Print(tb.CSV())
		} else {
			fmt.Println(tb.String())
		}
		if d := time.Since(start); d > time.Second && !*csv {
			fmt.Printf("(%s generated in %v)\n\n", name, d.Round(time.Millisecond))
		}
	}
}
