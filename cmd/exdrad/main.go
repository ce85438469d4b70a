// Command exdrad is the standing ExDRa coordinator daemon: one process
// multiplexing many concurrent exploratory sessions over a shared fleet of
// federated workers (ExDRa §4.1's control program, grown into a service).
//
// Where cmd/exdra runs a single batch pipeline and exits, exdrad stays up:
// clients open sessions over a small HTTP JSON API, run federated work under
// per-session object namespaces, and close (or are idle-reaped). Admission
// control bounds sessions and per-session in-flight work; SIGTERM drains
// in-flight batches before tearing every session's worker-side state down.
//
// Usage:
//
//	exdrad -workers 127.0.0.1:7001,127.0.0.1:7002 -addr 127.0.0.1:8080
//
// API:
//
//	POST   /v1/sessions            → 201 {"id":"s1","namespace":1}
//	GET    /v1/sessions            → 200 [{"id":...,"namespace":...,"in_flight":...}]
//	DELETE /v1/sessions/{id}       → 204
//	POST   /v1/sessions/{id}/lm    → 200 {"weights":[...]}   body: {"rows":240,"features":8,"noise":0.01,"seed":7}
//	GET    /v1/status              → 200 {"sessions":...,"pools":{...}}
//
// Admission rejections map to 429 Too Many Requests; a draining service
// answers 503 Service Unavailable.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"exdra/internal/algo"
	"exdra/internal/data"
	"exdra/internal/federated"
	"exdra/internal/fedrpc"
	"exdra/internal/fedserve"
	"exdra/internal/obs"
	"exdra/internal/privacy"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "HTTP session API listen address")
	workers := flag.String("workers", "", "comma-separated fedworker addresses (required)")
	poolSize := flag.Int("pool-size", 4, "pooled connections per worker address")
	rpcWindow := flag.Int("rpc-window", 8,
		"pipelined in-flight RPCs per worker connection (1 = lock-step)")
	maxSessions := flag.Int("max-sessions", 64, "admission cap on concurrently open sessions (0 = unlimited)")
	maxInFlight := flag.Int("max-inflight", 4, "per-session cap on in-flight batches (0 = unlimited)")
	maxInFlightBytes := flag.Int64("max-inflight-bytes", 0, "per-session cap on summed in-flight payload bytes (0 = unlimited)")
	idleTimeout := flag.Duration("idle-timeout", 15*time.Minute,
		"reap sessions with no in-flight work and no activity for this long (0 disables)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"SIGTERM grace: how long to wait for in-flight batches before forced teardown")
	callTimeout := flag.Duration("call-timeout", 0, "time budget of each worker call, retries included; fixed fleet-wide at startup (0 = none)")
	retries := flag.Int("retries", 3, "attempts per retry-safe batch after transport failures (50ms backoff doubling to 2s); restart recovery is always on")
	metricsAddr := flag.String("metrics-addr", "",
		"serve /metrics and /debug/pprof on this address (e.g. 127.0.0.1:9090; empty disables)")
	flag.Parse()

	addrs := splitAddrs(*workers)
	if len(addrs) == 0 {
		log.Fatal("exdrad: -workers is required (comma-separated fedworker addresses)")
	}

	fleet := federated.NewFleet(fedrpc.Options{Window: *rpcWindow}, *poolSize, federated.Policy{
		Attempts: *retries, Backoff: 50 * time.Millisecond, CallTimeout: *callTimeout, Recover: true,
	})
	svc := fedserve.New(fleet, fedserve.Config{
		MaxSessions:      *maxSessions,
		MaxInFlight:      *maxInFlight,
		MaxInFlightBytes: *maxInFlightBytes,
		IdleTimeout:      *idleTimeout,
	})

	d := &daemon{svc: svc, addrs: addrs}
	httpSrv := &http.Server{Handler: d.mux()}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("exdrad: %v", err)
	}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("exdrad: http: %v", err)
		}
	}()
	fmt.Printf("exdrad: session API on http://%s\n", ln.Addr())
	fmt.Printf("exdrad: fleet of %d workers, pool size %d, max sessions %d\n",
		len(addrs), *poolSize, *maxSessions)
	if *metricsAddr != "" {
		ms, err := obs.Serve(*metricsAddr, obs.Default())
		if err != nil {
			log.Fatalf("exdrad: metrics endpoint: %v", err)
		}
		defer ms.Close()
		fmt.Printf("exdrad: metrics on http://%s/metrics\n", ms.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("exdrad: draining")
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	if err := svc.Drain(ctx); err != nil {
		fmt.Printf("exdrad: %v\n", err)
	}
	cancel()
	svc.Close()
	fleet.Close()
	_ = httpSrv.Close()
	fmt.Println("exdrad: shut down")
}

func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// daemon carries the request handlers' shared state.
type daemon struct {
	svc   *fedserve.Service
	addrs []string
}

func (d *daemon) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", d.openSession)
	mux.HandleFunc("GET /v1/sessions", d.listSessions)
	mux.HandleFunc("DELETE /v1/sessions/{id}", d.closeSession)
	mux.HandleFunc("POST /v1/sessions/{id}/lm", d.runLM)
	mux.HandleFunc("GET /v1/status", d.status)
	return mux
}

// writeErr maps service errors onto HTTP status codes: admission rejections
// are load shedding (429, retry later), drain is shutdown (503), a missing
// or closed session is the client's stale handle (404/409).
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, fedserve.ErrAdmissionRejected):
		code = http.StatusTooManyRequests
	case errors.Is(err, fedserve.ErrDraining):
		code = http.StatusServiceUnavailable
	case errors.Is(err, fedserve.ErrSessionClosed):
		code = http.StatusConflict
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("exdrad: writing response: %v", err)
	}
}

type sessionInfo struct {
	ID        string `json:"id"`
	Namespace int64  `json:"namespace"`
	InFlight  int    `json:"in_flight"`
}

func (d *daemon) openSession(w http.ResponseWriter, r *http.Request) {
	sess, err := d.svc.Open()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, sessionInfo{ID: sess.ID(), Namespace: sess.Namespace()})
}

func (d *daemon) listSessions(w http.ResponseWriter, r *http.Request) {
	sessions := d.svc.Sessions()
	out := make([]sessionInfo, 0, len(sessions))
	for _, sess := range sessions {
		out = append(out, sessionInfo{ID: sess.ID(), Namespace: sess.Namespace(), InFlight: sess.InFlight()})
	}
	writeJSON(w, http.StatusOK, out)
}

func (d *daemon) closeSession(w http.ResponseWriter, r *http.Request) {
	sess := d.svc.Session(r.PathValue("id"))
	if sess == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such session"})
		return
	}
	sess.Close()
	w.WriteHeader(http.StatusNoContent)
}

// lmRequest is the demo workload: train a seeded linear model over
// synthetic regression data distributed row-partitioned across the fleet.
// It exists so the service can be driven end to end (ci smoke, manual
// curl) without a separate client binary.
type lmRequest struct {
	Rows     int     `json:"rows"`
	Features int     `json:"features"`
	Noise    float64 `json:"noise"`
	Seed     int64   `json:"seed"`
}

func (d *daemon) runLM(w http.ResponseWriter, r *http.Request) {
	sess := d.svc.Session(r.PathValue("id"))
	if sess == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such session"})
		return
	}
	var req lmRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	if req.Rows <= 0 {
		req.Rows = 240
	}
	if req.Features <= 0 {
		req.Features = 8
	}
	if req.Noise <= 0 {
		req.Noise = 0.01
	}

	// One LM run is one admitted batch: the X matrix dominates the payload.
	release, err := sess.Begin(int64(req.Rows) * int64(req.Features) * 8)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer release()
	x, y := data.Regression(req.Seed, req.Rows, req.Features, req.Noise)
	fx, err := federated.Distribute(sess.Coordinator(), x, d.addrs, federated.RowPartitioned, privacy.PrivateAggregation)
	if err != nil {
		writeErr(w, err)
		return
	}
	defer fx.Free()
	res, err := algo.LM(fx, y, algo.LMConfig{})
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"weights":    res.Weights.Data(),
		"iterations": res.Iterations,
	})
}

func (d *daemon) status(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"sessions": d.svc.NumSessions(),
		"workers":  d.addrs,
		"pools":    d.svc.Fleet().PoolStats(),
	})
}
