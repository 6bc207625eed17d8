package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
)

// serverReport is the JSON document of -server mode: the same cold/warm
// cache story as the in-process benchmark, but measured through the full
// HTTP path — JSON decoding, admission control, NDJSON streaming — with
// many concurrent clients sharing one engine.
type serverReport struct {
	Space        int          `json:"space_points"`
	Clients      int          `json:"clients"`
	Rounds       int          `json:"rounds"`
	Workers      int          `json:"workers"`
	ColdEvalsSec float64      `json:"cold_evals_per_sec"`
	WarmEvalsSec float64      `json:"warm_evals_per_sec"`
	Speedup      float64      `json:"warm_over_cold"`
	Cold         engine.Stats `json:"cold_stats"`
	Warm         engine.Stats `json:"warm_stats"`
	Server       server.Stats `json:"server_stats"`
}

// runServerBench loads the HTTP serving path: a local c2bound server on a
// loopback listener, `clients` concurrent clients splitting the reduced
// space into batch requests. The cold pass computes every point; warm
// passes re-request the same points and must be served from the shared
// engine cache across all clients.
func runServerBench(out string, per, rounds, workers, clients int) {
	if clients < 1 {
		clients = 1
	}
	srv := server.New(server.Options{
		Workers:       workers,
		MaxConcurrent: clients,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	httpSrv := &http.Server{Handler: srv}
	go func() {
		_ = httpSrv.Serve(ln)
	}()
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	_, space, err := paperModel(per)
	if err != nil {
		log.Fatalf("space: %v", err)
	}
	points := make([][]float64, space.Size())
	for i := range points {
		points[i] = space.Point(i)
	}
	chunks := splitChunks(points, clients)

	pass := func() time.Duration {
		start := time.Now()
		var wg sync.WaitGroup
		errs := make(chan error, len(chunks))
		for _, chunk := range chunks {
			wg.Add(1)
			go func(chunk [][]float64) {
				defer wg.Done()
				client := &http.Client{} // fresh transport: a distinct client
				if err := postBatch(client, base, chunk); err != nil {
					errs <- err
				}
			}(chunk)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			log.Fatalf("batch: %v", err)
		}
		return time.Since(start)
	}

	coldDur := pass()
	coldStats := srv.Engine().Stats()

	var warmDur time.Duration
	for i := 0; i < rounds; i++ {
		warmDur += pass()
	}
	warmStats := srv.Engine().Stats().Delta(coldStats)
	if warmStats.CacheHits < uint64(space.Size()*rounds) {
		log.Fatalf("warm passes hit the cache %d times, want ≥ %d — the shared-cache story is broken",
			warmStats.CacheHits, space.Size()*rounds)
	}

	rep := serverReport{
		Space:        space.Size(),
		Clients:      clients,
		Rounds:       rounds,
		Workers:      srv.Engine().Workers(),
		ColdEvalsSec: float64(space.Size()) / coldDur.Seconds(),
		WarmEvalsSec: float64(space.Size()*rounds) / warmDur.Seconds(),
		Cold:         coldStats,
		Warm:         warmStats,
		Server:       srv.Stats(),
	}
	if rep.ColdEvalsSec > 0 {
		rep.Speedup = rep.WarmEvalsSec / rep.ColdEvalsSec
	}
	writeJSON(out, rep)
	fmt.Printf("server: %d clients, cold %.0f evals/s, warm %.0f evals/s (%.1fx) → %s\n",
		clients, rep.ColdEvalsSec, rep.WarmEvalsSec, rep.Speedup, out)
}

// splitChunks partitions points into at most n contiguous chunks.
func splitChunks(points [][]float64, n int) [][][]float64 {
	if n > len(points) {
		n = len(points)
	}
	chunks := make([][][]float64, 0, n)
	base, rem := len(points)/n, len(points)%n
	start := 0
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		chunks = append(chunks, points[start:start+size])
		start += size
	}
	return chunks
}

// postBatch sends one evaluate:batch request and consumes the NDJSON
// stream, verifying every point came back.
func postBatch(client *http.Client, base string, points [][]float64) error {
	body, err := json.Marshal(server.BatchRequest{
		Model:  server.ModelSpec{App: "fluidanimate"},
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
	results := 0
	var summary server.BatchSummary
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if bytes.Contains(sc.Bytes(), []byte(`"done"`)) {
			if err := json.Unmarshal(sc.Bytes(), &summary); err != nil {
				return fmt.Errorf("summary: %w", err)
			}
			continue
		}
		results++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if results != len(points) {
		return fmt.Errorf("got %d results for %d points", results, len(points))
	}
	if summary.Errors != 0 {
		return fmt.Errorf("%d points failed", summary.Errors)
	}
	return nil
}
