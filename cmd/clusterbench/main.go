// Command clusterbench measures the distributed tier end to end and
// writes the result as JSON. It builds cmd/c2bound-server, spawns
// 1..-peers real server processes sharing one peers.json membership
// table, drives the full tmm catalog sweep through the first peer (cold,
// warm, then a warm batch pass) and records ring shard balance, the
// aggregate warm hit rate as capacity scales out, and the fan-out hop's
// latency — the communication term (typically to BENCH_cluster.json via
// `make bench-cluster`).
//
// The run fails on shard imbalance over 15%, on any local-fallback
// point (nothing failed, so nothing may have degraded), or if the warm
// hit rate does not rise with peer count.
//
// Usage:
//
//	clusterbench [-peers n] [-per k] [-out file]
//
// The in-process engine, serving and observability figures live in the
// repository benchmark (perfbench); their correctness gates are tests.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/model"
)

func main() {
	out := flag.String("out", "BENCH_cluster.json", "output JSON path")
	per := flag.Int("per", 4, "design-space values per dimension")
	peers := flag.Int("peers", 3, "largest peer count (measures 1..n)")
	flag.Parse()

	maxPeers := max(*peers, 1)
	rep, err := clusterBench(*per, maxPeers)
	if err != nil {
		log.Fatalf("cluster: %v", err)
	}
	writeJSON(*out, rep)
	for _, r := range rep.Runs {
		fmt.Printf("cluster: %d peers, cold %.2fs, warm %.2fs, warm hits %.0f%%, imbalance %.1f%%, fanout %.1fms avg\n",
			r.Peers, r.ColdSeconds, r.WarmSeconds, 100*r.WarmHitRate, r.ImbalancePct, r.FanoutAvgMS)
	}
	fmt.Printf("cluster: %d points over 1..%d peers → %s\n", rep.Space, maxPeers, *out)
}

// paperSpace returns the c2bound objective's §IV space on the default
// chip, subsampled to per values per dimension.
func paperSpace(per int) (dse.Space, error) {
	if per < 1 || per > 10 {
		return dse.Space{}, fmt.Errorf("-per needs 1..10 values per dimension, got %d", per)
	}
	m, err := model.New(model.FamilyC2Bound, model.Config{Chip: chip.DefaultConfig(), App: core.FluidanimateApp()})
	if err != nil {
		return dse.Space{}, err
	}
	return dse.SpaceFor(m, per)
}

// writeJSON marshals v with indentation and writes it to path.
func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatalf("marshal: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatalf("write %s: %v", path, err)
	}
}
