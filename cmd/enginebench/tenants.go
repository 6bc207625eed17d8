package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// tenantLatency summarizes one tenant's view of a bench phase.
type tenantLatency struct {
	Requests int     `json:"requests"`
	Shed     int     `json:"shed_429"`
	Errors   int     `json:"errors"`
	P50MS    float64 `json:"p50_ms"`
	P99MS    float64 `json:"p99_ms"`
}

// tenantReport is the JSON document of -tenants mode: an adversarial
// two-tenant scenario proving fair-share isolation. A flooder tenant
// saturates the admission gate while a trickler sends one request per
// second; the report compares the trickler's latency against its
// unloaded baseline and records how much flooder traffic was shed.
type tenantReport struct {
	Workers        int           `json:"workers"`
	MaxConcurrent  int           `json:"max_concurrent"`
	FlooderClients int           `json:"flooder_clients"`
	DurationSec    float64       `json:"duration_sec"`
	Baseline       tenantLatency `json:"trickler_unloaded"`
	Trickler       tenantLatency `json:"trickler_loaded"`
	Flooder        tenantLatency `json:"flooder"`
	P99Ratio       float64       `json:"trickler_p99_over_baseline"`
	Server         server.Stats  `json:"server_stats"`
}

// runTenantBench starts a loopback server with two tenants — a flooder
// holding most of the concurrency quota and a small queue bound, and a
// trickler with guaranteed headroom — then measures whether the
// trickler's tail latency survives the flood. Every request carries a
// fresh simulator seed so the shared cache cannot absorb the load.
func runTenantBench(out string, workers, clients int, dur time.Duration) {
	if clients < 1 {
		clients = 1
	}
	const maxConc = 8
	srv := server.New(server.Options{
		Workers:       workers,
		MaxConcurrent: maxConc,
		MaxQueue:      64,
		Tenants: []server.TenantConfig{
			{
				Name:          "flooder",
				Key:           "bench-flooder",
				Weight:        1,
				MaxConcurrent: maxConc - 2, // the trickler always has headroom
				MaxQueue:      4,           // small bound: excess flood is shed, not parked
				RatePerSec:    1e6,         // never rate-limited; sheds come from the queue
			},
			{
				Name:       "trickler",
				Key:        "bench-trickler",
				Weight:     1,
				RatePerSec: 10,
				Burst:      10,
			},
		},
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

	_, space, err := paperModel(3)
	if err != nil {
		log.Fatalf("space: %v", err)
	}
	point := space.Point(0)
	var seed atomic.Uint64 // unique per request: distinct fingerprint, no cache hits

	evalOnce := func(client *http.Client, key string) (time.Duration, int, error) {
		body, err := json.Marshal(server.EvaluateRequest{
			Model:     server.ModelSpec{App: "tmm"},
			Evaluator: server.EvaluatorSpec{Kind: "sim", Seed: seed.Add(1)},
			Point:     point,
		})
		if err != nil {
			return 0, 0, err
		}
		req, err := http.NewRequest(http.MethodPost, base+"/v1/evaluate", bytes.NewReader(body))
		if err != nil {
			return 0, 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-API-Key", key)
		start := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			return 0, 0, err
		}
		defer resp.Body.Close()
		var sink json.RawMessage
		_ = json.NewDecoder(resp.Body).Decode(&sink)
		return time.Since(start), resp.StatusCode, nil
	}

	trickle := func(client *http.Client, n int, gap time.Duration) tenantLatency {
		var lat []time.Duration
		res := tenantLatency{}
		tick := time.NewTicker(gap)
		defer tick.Stop()
		for i := 0; i < n; i++ {
			d, status, err := evalOnce(client, "bench-trickler")
			res.Requests++
			switch {
			case err != nil:
				res.Errors++
			case status == http.StatusTooManyRequests:
				res.Shed++
			case status != http.StatusOK:
				res.Errors++
			default:
				lat = append(lat, d)
			}
			if i < n-1 {
				<-tick.C
			}
		}
		res.P50MS = millis(pctile(lat, 0.50))
		res.P99MS = millis(pctile(lat, 0.99))
		return res
	}

	samples := int(dur / time.Second)
	if samples < 5 {
		samples = 5
	}

	fmt.Printf("phase 1/2: trickler baseline on an idle server (%d requests)...\n", samples)
	baseline := trickle(&http.Client{}, samples, 100*time.Millisecond)

	fmt.Printf("phase 2/2: %d flooder clients vs trickler at 1 req/s for %s...\n", clients, dur)
	deadline := time.Now().Add(dur)
	var (
		floodMu  sync.Mutex
		floodLat []time.Duration
		flood    tenantLatency
		wg       sync.WaitGroup
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			for time.Now().Before(deadline) {
				d, status, err := evalOnce(client, "bench-flooder")
				floodMu.Lock()
				flood.Requests++
				switch {
				case err != nil:
					flood.Errors++
				case status == http.StatusTooManyRequests:
					flood.Shed++
				case status != http.StatusOK:
					flood.Errors++
				default:
					floodLat = append(floodLat, d)
				}
				floodMu.Unlock()
			}
		}()
	}
	loaded := trickle(&http.Client{}, samples, time.Second)
	wg.Wait()
	flood.P50MS = millis(pctile(floodLat, 0.50))
	flood.P99MS = millis(pctile(floodLat, 0.99))

	if loaded.Shed > 0 {
		log.Fatalf("isolation broken: the trickler was shed %d times under flood", loaded.Shed)
	}
	if loaded.Errors > 0 || baseline.Errors > 0 {
		log.Fatalf("trickler requests failed (baseline %d, loaded %d errors)", baseline.Errors, loaded.Errors)
	}

	rep := tenantReport{
		Workers:        srv.Engine().Workers(),
		MaxConcurrent:  maxConc,
		FlooderClients: clients,
		DurationSec:    dur.Seconds(),
		Baseline:       baseline,
		Trickler:       loaded,
		Flooder:        flood,
		Server:         srv.Stats(),
	}
	if rep.Baseline.P99MS > 0 {
		rep.P99Ratio = rep.Trickler.P99MS / rep.Baseline.P99MS
	}
	writeJSON(out, rep)
	fmt.Printf("trickler: p99 %.1fms unloaded → %.1fms under flood (%.2fx), 0 shed\n",
		rep.Baseline.P99MS, rep.Trickler.P99MS, rep.P99Ratio)
	fmt.Printf("flooder : %d requests, %d shed (429), p99 %.1fms → %s\n",
		flood.Requests, flood.Shed, flood.P99MS, out)
}

// pctile returns the q-quantile (0..1] of the samples by the
// nearest-rank method; zero when there are no samples.
func pctile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

// millis converts a duration to float milliseconds for the report.
func millis(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
