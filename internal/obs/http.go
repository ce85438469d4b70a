package obs

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"time"
)

// MetricsServer is the opt-in HTTP endpoint exposing a registry. Routes:
//
//	/metrics          — snapshot, flat text by default, ?format=json for JSON
//	/debug/rpcs       — recent RPC spans, one structured line each
//	/debug/pprof/*    — the standard runtime profiles
//
// Start with Serve, stop with Close (which joins the serve goroutine).
type MetricsServer struct {
	reg   *Registry
	ln    net.Listener
	srv   *http.Server
	wg    sync.WaitGroup
	start time.Time
}

// Serve starts an HTTP metrics endpoint for reg on addr (host:port, port 0
// picks a free one). It returns once the listener is bound; use Addr for
// the resolved address. A nil reg serves the Default registry.
func Serve(addr string, reg *Registry) (*MetricsServer, error) {
	if reg == nil {
		reg = Default()
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	ms := &MetricsServer{reg: reg, ln: ln, start: time.Now()}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", ms.handleMetrics)
	mux.HandleFunc("/debug/rpcs", ms.handleSpans)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ms.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	ms.wg.Add(1)
	//lint:ignore goroleak joined by wg.Wait in Close/Shutdown, which every caller defers
	go func() {
		defer ms.wg.Done()
		if err := ms.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("obs: metrics server: %v", err)
		}
	}()
	return ms, nil
}

// Addr returns the bound listen address (useful with port 0).
func (ms *MetricsServer) Addr() string { return ms.ln.Addr().String() }

// Close shuts the endpoint down and waits for the serve goroutine.
func (ms *MetricsServer) Close() error {
	err := ms.srv.Close()
	ms.wg.Wait()
	return err
}

// handleMetrics renders a fresh snapshot. Process-level gauges
// (process.uptime_seconds, process.goroutines) are refreshed on every
// scrape so the endpoint always carries at least those, even on an idle
// process — ci.sh's smoke test greps for them.
func (ms *MetricsServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ms.reg.Gauge("process.uptime_seconds").Set(int64(time.Since(ms.start).Seconds()))
	ms.reg.Gauge("process.goroutines").Set(int64(runtime.NumGoroutine()))
	snap := ms.reg.Snapshot()
	var err error
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		err = snap.WriteJSON(w)
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		err = snap.WriteText(w)
	}
	if err != nil {
		// Headers are already out; all we can do is log.
		log.Printf("obs: render /metrics: %v", err)
	}
}

// handleSpans renders the recent RPC spans, oldest first.
func (ms *MetricsServer) handleSpans(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := ms.reg.WriteSpans(w); err != nil {
		log.Printf("obs: render /debug/rpcs: %v", err)
	}
}
