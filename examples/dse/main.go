// Command dse runs the paper's §IV design-space-exploration experiment
// end to end on a reduced space: a ground-truth brute-force sweep of the
// simulator, the APS (Analysis-Plus-Simulation) flow, and the ANN
// predictive baseline, then prints the Fig. 12 simulation-count comparison
// and the APS accuracy. Pass -per 4 (or more) for a larger space; -per 10
// is the paper's full 10⁶-point space and takes minutes.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/experiments"
)

func main() {
	per := flag.Int("per", 3, "design-space values per dimension (10 = paper scale)")
	refs := flag.Int("refs", 4000, "workload references per simulation")
	flag.Parse()

	sc := experiments.Scale{SpacePer: *per, TotalRefs: *refs}
	start := time.Now()
	tb, data, err := experiments.Fig12SimulationCountsCtx(context.Background(), sc)
	if err != nil {
		log.Fatalf("fig12: %v", err)
	}
	fmt.Println(tb.String())
	fmt.Printf("APS explored %d of %d configurations — a %.0fx reduction (paper: 10^6 → 10^2).\n",
		data.APSSims, data.SpaceSize, float64(data.SpaceSize)/float64(data.APSSims))
	fmt.Printf("APS design is within %.2f%% of the true optimum (paper: 5.96%%).\n", 100*data.APSRelErr)
	if data.ANNSims > 0 {
		fmt.Printf("APS used %.1f%% of the ANN baseline's simulations (paper: 16.3%%).\n",
			100*data.APSShareOfANN)
	}
	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Millisecond))
}
