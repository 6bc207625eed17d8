package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/dse"
	"repro/internal/server"
)

// clusterRun is one peer-count row of the report: the same tmm
// catalog sweep driven through a real multi-process cluster, cold then
// warm, with the communication term broken out the way Yavits, Morad &
// Ginosar bolt it onto Amdahl's law — useful work (evaluations) vs. the
// fan-out hop (peer exchanges and their wall time).
type clusterRun struct {
	Peers        int `json:"peers"`
	CachePerPeer int `json:"cache_per_peer"`
	// ColdSeconds/WarmSeconds are coordinator wall times for one full
	// sweep of the space.
	ColdSeconds float64 `json:"cold_seconds"`
	WarmSeconds float64 `json:"warm_seconds"`
	// WarmHitRate is the warm sweep's aggregate cache-hit fraction. The
	// per-peer cache is sized below the space, so a single node cannot
	// hold the sweep and the rate climbs with aggregate capacity.
	WarmHitRate float64 `json:"warm_hit_rate"`
	// Shards are the cold-pass evaluation counts per peer (ring shard
	// sizes measured end-to-end), and ImbalancePct the largest relative
	// deviation from the even split.
	Shards       []int   `json:"shard_points"`
	ImbalancePct float64 `json:"shard_imbalance_pct"`
	// Routing counters from the coordinator's /metrics.
	LocalPoints    uint64 `json:"local_points"`
	RemotePoints   uint64 `json:"remote_points"`
	FallbackPoints uint64 `json:"fallback_points"`
	// RemoteHitRate is the remote-owned share of a warm batch pass that
	// the owners answered from cache.
	RemoteHitRate float64 `json:"remote_hit_rate"`
	// The comm term: peer exchanges issued by the coordinator, their
	// total wall seconds and the mean per-exchange latency.
	PeerExchanges uint64  `json:"peer_exchanges"`
	CommSeconds   float64 `json:"comm_seconds_total"`
	FanoutAvgMS   float64 `json:"fanout_avg_ms"`
}

// clusterReport is the JSON document written to -out.
type clusterReport struct {
	App          string       `json:"app"`
	Space        int          `json:"space_points"`
	VirtualNodes int          `json:"vnodes"`
	Runs         []clusterRun `json:"runs"`
}

// clusterBench builds cmd/c2bound-server once, then for each peer
// count 1..maxPeers spawns that many real server processes sharing one
// peers.json, drives a full tmm catalog sweep through the first peer
// (cold, then warm, then a warm batch pass for the remote-hit story)
// and collects shard balance and fan-out latency from the per-peer
// /readyz and /metrics endpoints. It fails if the shard imbalance
// exceeds 15%, if the warm hit rate does not rise with peer count, or
// if any point took the local-fallback path (nothing failed, so nothing
// may have degraded).
func clusterBench(per, maxPeers int) (clusterReport, error) {
	space, err := paperSpace(per)
	if err != nil {
		return clusterReport{}, fmt.Errorf("space: %w", err)
	}
	size := space.Size()
	// Size each peer's cache below the whole space but above one ring
	// shard: a lone peer thrashes its LRU on every pass, while any
	// multi-peer split fits shard-per-peer, so aggregate capacity (the
	// thing the cluster adds) is what moves the warm hit rate.
	cachePer := size * 4 / 5

	tmp, err := os.MkdirTemp("", "clusterbench-")
	if err != nil {
		return clusterReport{}, err
	}
	defer os.RemoveAll(tmp)
	bin := filepath.Join(tmp, "c2bound-server")
	if msg, err := exec.Command("go", "build", "-o", bin, "./cmd/c2bound-server").CombinedOutput(); err != nil {
		return clusterReport{}, fmt.Errorf("building c2bound-server: %w\n%s", err, msg)
	}

	rep := clusterReport{App: "tmm", Space: size, VirtualNodes: cluster.DefaultVirtualNodes}
	for n := 1; n <= maxPeers; n++ {
		run, err := clusterRunOnce(tmp, bin, space, per, n, cachePer)
		if err != nil {
			return clusterReport{}, fmt.Errorf("%d peers: %w", n, err)
		}
		rep.Runs = append(rep.Runs, run)
	}

	// The acceptance gates: balanced shards, no silent degradation, and
	// warm capacity that actually scales out.
	for _, r := range rep.Runs {
		if r.Peers > 1 && r.ImbalancePct > 15 {
			return clusterReport{}, fmt.Errorf("%d peers: shard imbalance %.1f%% exceeds 15%% — the ring's vnode count is too low", r.Peers, r.ImbalancePct)
		}
		if r.FallbackPoints != 0 {
			return clusterReport{}, fmt.Errorf("%d peers: %d points took the local-compute fallback with no failure injected", r.Peers, r.FallbackPoints)
		}
	}
	for i := 1; i < len(rep.Runs); i++ {
		if rep.Runs[i].WarmHitRate < rep.Runs[i-1].WarmHitRate {
			return clusterReport{}, fmt.Errorf("warm hit rate fell from %.2f (%d peers) to %.2f (%d peers) — aggregate cache capacity is not scaling out",
				rep.Runs[i-1].WarmHitRate, rep.Runs[i-1].Peers, rep.Runs[i].WarmHitRate, rep.Runs[i].Peers)
		}
	}
	if last := rep.Runs[len(rep.Runs)-1]; len(rep.Runs) > 1 && last.WarmHitRate <= rep.Runs[0].WarmHitRate {
		return clusterReport{}, fmt.Errorf("warm hit rate did not increase with peer count (%.2f at 1 peer, %.2f at %d)",
			rep.Runs[0].WarmHitRate, last.WarmHitRate, last.Peers)
	}
	return rep, nil
}

// peerProc is one spawned server process.
type peerProc struct {
	name string
	base string
	cmd  *exec.Cmd
}

// clusterRunOnce spawns an n-peer cluster, measures one cold and one
// warm sweep plus a warm batch pass, and tears the processes down.
func clusterRunOnce(tmp, bin string, space dse.Space, per, n, cachePer int) (run clusterRun, err error) {
	procs, err := spawnCluster(tmp, bin, n, cachePer)
	defer stopCluster(procs)
	if err != nil {
		return run, err
	}
	client := &http.Client{}
	coordinator := procs[0].base

	run = clusterRun{Peers: n, CachePerPeer: cachePer}

	before := make([]uint64, n)
	for i, p := range procs {
		if before[i], err = peerEvaluations(client, p.base); err != nil {
			return run, err
		}
	}

	coldStart := time.Now()
	coldRep, err := driveSweep(client, coordinator, per)
	if err != nil {
		return run, fmt.Errorf("cold sweep: %w", err)
	}
	run.ColdSeconds = time.Since(coldStart).Seconds()
	if len(coldRep.Pending) != 0 || len(coldRep.Failed) != 0 {
		return run, fmt.Errorf("cold sweep incomplete: %d pending, %d failed", len(coldRep.Pending), len(coldRep.Failed))
	}

	// Shard sizes: where the cold pass's evaluations actually landed.
	total := 0
	for i, p := range procs {
		after, err := peerEvaluations(client, p.base)
		if err != nil {
			return run, err
		}
		shard := int(after - before[i])
		run.Shards = append(run.Shards, shard)
		total += shard
	}
	if total < coldRep.Total {
		return run, fmt.Errorf("cold pass evaluated %d of %d points", total, coldRep.Total)
	}
	mean := float64(total) / float64(n)
	for _, s := range run.Shards {
		if dev := 100 * math.Abs(float64(s)-mean) / mean; dev > run.ImbalancePct {
			run.ImbalancePct = dev
		}
	}

	warmStart := time.Now()
	warmRep, err := driveSweep(client, coordinator, per)
	if err != nil {
		return run, fmt.Errorf("warm sweep: %w", err)
	}
	run.WarmSeconds = time.Since(warmStart).Seconds()
	run.WarmHitRate = float64(warmRep.CacheHits) / float64(warmRep.Total)

	// A warm batch pass exercises the same routing path (peer-eval
	// exchanges) over space points the owners now hold, isolating the
	// remote-hit story from the sweep's own bookkeeping.
	batchN := space.Size()
	if batchN > 1024 {
		batchN = 1024
	}
	points := make([][]float64, batchN)
	for i := range points {
		points[i] = space.Point(i)
	}
	mBefore, err := clusterMetrics(client, coordinator)
	if err != nil {
		return run, err
	}
	if err := postClusterBatch(client, coordinator, points); err != nil {
		return run, fmt.Errorf("warm batch: %w", err)
	}
	m, err := clusterMetrics(client, coordinator)
	if err != nil {
		return run, err
	}

	run.LocalPoints = m["cluster_local_points_total"]
	run.RemotePoints = m["cluster_remote_points_total"]
	run.FallbackPoints = m["cluster_fallback_points_total"]
	run.PeerExchanges = m["cluster_peer_requests_total"]
	run.CommSeconds = math.Float64frombits(m["cluster_peer_seconds_sum_bits"])
	if c := m["cluster_peer_seconds_count"]; c > 0 {
		run.FanoutAvgMS = 1000 * run.CommSeconds / float64(c)
	}
	if remote := m["cluster_remote_points_total"] - mBefore["cluster_remote_points_total"]; remote > 0 {
		hits := m["cluster_remote_hits_total"] - mBefore["cluster_remote_hits_total"]
		run.RemoteHitRate = float64(hits) / float64(remote)
	}
	return run, nil
}

// spawnCluster reserves n loopback ports, writes the shared peers.json
// and starts one server process per peer, waiting until every /readyz
// answers 200.
func spawnCluster(tmp, bin string, n, cachePer int) ([]peerProc, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	cfg := cluster.Config{}
	for i, addr := range addrs {
		cfg.Peers = append(cfg.Peers, cluster.PeerConfig{
			Name: fmt.Sprintf("bench-%d", i),
			URL:  "http://" + addr,
		})
	}
	peersPath := filepath.Join(tmp, fmt.Sprintf("peers-%d.json", n))
	data, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(peersPath, data, 0o644); err != nil {
		return nil, err
	}

	procs := make([]peerProc, 0, n)
	for i, addr := range addrs {
		cmd := exec.Command(bin,
			"-addr", addr,
			"-peers", peersPath,
			"-peer-self", cfg.Peers[i].Name,
			"-cache", strconv.Itoa(cachePer),
		)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return procs, fmt.Errorf("starting peer %d: %w", i, err)
		}
		procs = append(procs, peerProc{name: cfg.Peers[i].Name, base: "http://" + addr, cmd: cmd})
	}
	client := &http.Client{Timeout: time.Second}
	for _, p := range procs {
		if err := waitReady(client, p.base, 15*time.Second); err != nil {
			return procs, fmt.Errorf("peer %s: %w", p.name, err)
		}
	}
	return procs, nil
}

// stopCluster terminates the peer processes gracefully, escalating to
// SIGKILL if a drain hangs.
func stopCluster(procs []peerProc) {
	for _, p := range procs {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range procs {
		done := make(chan struct{})
		go func(c *exec.Cmd) {
			_ = c.Wait()
			close(done)
		}(p.cmd)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = p.cmd.Process.Kill()
			<-done
		}
	}
}

// waitReady polls /readyz until it answers 200.
func waitReady(client *http.Client, base string, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("not ready after %v: %w", patience, err)
			}
			return fmt.Errorf("not ready after %v", patience)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// driveSweep runs one full tmm catalog sweep through a peer and returns
// the final report.
func driveSweep(client *http.Client, base string, per int) (dse.SweepReport, error) {
	body, err := json.Marshal(server.SweepRequest{
		Model: server.ModelSpec{App: "tmm"},
		Space: server.SpaceSpec{Per: per},
	})
	if err != nil {
		return dse.SweepReport{}, err
	}
	resp, err := client.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return dse.SweepReport{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return dse.SweepReport{}, fmt.Errorf("status %d", resp.StatusCode)
	}
	var result server.SweepResult
	sawResult := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if !bytes.Contains(sc.Bytes(), []byte(`"result"`)) {
			continue
		}
		var frame server.SweepResult
		if err := json.Unmarshal(sc.Bytes(), &frame); err != nil {
			return dse.SweepReport{}, err
		}
		if frame.Type == "result" {
			result, sawResult = frame, true
		}
	}
	if err := sc.Err(); err != nil {
		return dse.SweepReport{}, err
	}
	if !sawResult {
		return dse.SweepReport{}, fmt.Errorf("no result frame")
	}
	if result.Error != nil {
		return dse.SweepReport{}, fmt.Errorf("sweep error: %s", result.Error.Message)
	}
	return result.Report, nil
}

// postClusterBatch routes one warm batch through the coordinator.
func postClusterBatch(client *http.Client, base string, points [][]float64) error {
	body, err := json.Marshal(server.BatchRequest{
		Model:  server.ModelSpec{App: "tmm"},
		Points: points,
	})
	if err != nil {
		return err
	}
	resp, err := client.Post(base+"/v1/evaluate:batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	var summary server.BatchSummary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if bytes.Contains(sc.Bytes(), []byte(`"done"`)) {
			if err := json.Unmarshal(sc.Bytes(), &summary); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if summary.Errors != 0 {
		return fmt.Errorf("%d points failed", summary.Errors)
	}
	return nil
}

// peerEvaluations reads one peer's cumulative evaluation count from
// /readyz (the engine snapshot is part of the tool contract).
func peerEvaluations(client *http.Client, base string) (uint64, error) {
	resp, err := client.Get(base + "/readyz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var health struct {
		Engine struct {
			Stats struct {
				Evaluations uint64 `json:"evaluations"`
			} `json:"stats"`
		} `json:"engine"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		return 0, err
	}
	return health.Engine.Stats.Evaluations, nil
}

// clusterMetrics scrapes the cluster_* series from a peer's /metrics
// text exposition. Counter values are returned directly; the float
// cluster_peer_seconds_sum is stashed under a "_bits" key so one map
// carries both.
func clusterMetrics(client *http.Client, base string) (map[string]uint64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]uint64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "cluster_") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		if name == "cluster_peer_seconds_sum" {
			f, err := strconv.ParseFloat(value, 64)
			if err == nil {
				out["cluster_peer_seconds_sum_bits"] = math.Float64bits(f)
			}
			continue
		}
		n, err := strconv.ParseUint(value, 10, 64)
		if err == nil {
			out[name] = n
		}
	}
	return out, sc.Err()
}
