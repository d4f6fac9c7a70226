// Scheduleservice: run the scheduling service in-process and drive it with
// the typed HTTP client — the deployment shape where a datacenter
// controller asks a central scheduler for circuit schedules over the
// network.
//
//	go run ./examples/scheduleservice
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"reco/internal/api"
)

func main() {
	// Serve on an ephemeral loopback port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	service := api.NewServer(api.Options{})
	defer service.Close()
	h, _ := service.InstrumentedHandlerOn(nil)
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != http.ErrServerClosed {
			log.Printf("serve: %v", err)
		}
	}()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	base := "http://" + ln.Addr().String()
	fmt.Printf("scheduling service at %s\n\n", base)
	client := api.NewClient(base, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if err := client.Healthz(ctx); err != nil {
		log.Fatal(err)
	}

	// Ask the service for a workload, then schedule it two ways.
	wl, err := client.GenerateWorkload(ctx, api.WorkloadRequest{
		N: 16, NumCoflows: 6, Seed: 42, MinDemand: 400,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d coflows on a 16-port fabric\n", len(wl.Demands))

	single, err := client.ScheduleSingle(ctx, api.SingleRequest{Demand: wl.Demands[0], Delta: 100})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coflow 0 via Reco-Sin: cct=%d reconfigs=%d lowerBound=%d (within 2x: %v)\n",
		single.CCT, single.Reconfigs, single.LowerBound, single.CCT <= 2*single.LowerBound)

	multi, err := client.ScheduleMulti(ctx, api.MultiRequest{Demands: wl.Demands, Delta: 100, C: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("all %d coflows via Reco-Mul: reconfigs=%d, CCTs=%v\n",
		len(multi.CCTs), multi.Reconfigs, multi.CCTs)

	// The service self-reports request metrics: a count and latency
	// quantiles per route, in /metrics.json beside the scheduler's own series.
	resp, err := http.Get(base + "/metrics.json")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var series map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&series); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nservice metrics:\n")
	for _, route := range []string{"GET /v1/healthz", "POST /v1/workload/generate", "POST /v1/schedule/single", "POST /v1/schedule/multi"} {
		var lat struct {
			Count int64   `json:"count"`
			P50   float64 `json:"p50"`
			P99   float64 `json:"p99"`
		}
		if err := json.Unmarshal(series[`http_request_seconds{endpoint="`+route+`"}`], &lat); err != nil {
			log.Fatalf("%s: %v", route, err)
		}
		fmt.Printf("%-28s count=%d p50=%s p99=%s\n", route, lat.Count,
			time.Duration(lat.P50*float64(time.Second)).Round(time.Microsecond),
			time.Duration(lat.P99*float64(time.Second)).Round(time.Microsecond))
	}
}
