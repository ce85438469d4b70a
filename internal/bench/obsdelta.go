package bench

import (
	"strings"

	"exdra/internal/obs"
)

// foldObsDelta folds the observability-registry delta of one timed run into
// the measurement's Extra columns, so an expbench row carries the RPC
// breakdown next to wall time: call/error counts, per-request-type counts
// (rpc_exec_inst, rpc_get, ...), and the summed per-phase seconds
// (enc_s/net_s/exec_s/dec_s). Runners snapshot the run's registry
// (runRegistry) when their timer starts, after data distribution, matching
// the mb_sent convention, and fold the diff when it stops.
func foldObsDelta(m *Measurement, reg *obs.Registry, prev obs.Snapshot) {
	d := reg.Snapshot().Diff(prev)
	if n := d.Counters["rpc.client.calls"]; n > 0 {
		m.Extra["rpc_calls"] = float64(n)
	}
	if n := d.Counters["rpc.client.errors"]; n > 0 {
		m.Extra["rpc_errors"] = float64(n)
	}
	if n := d.Counters["fed.retries"]; n > 0 {
		m.Extra["rpc_retries"] = float64(n)
	}
	// Service-layer columns: pool churn (checkouts and how many had to wait
	// for a connection) and admission rejections, so a bench row run through
	// fedserve shows contention next to its wall time.
	if n := d.Counters["serve.pool.checkouts"]; n > 0 {
		m.Extra["pool_checkouts"] = float64(n)
	}
	if n := d.Counters["serve.pool.waits"]; n > 0 {
		m.Extra["pool_waits"] = float64(n)
	}
	if n := d.Counters["serve.rejections"]; n > 0 {
		m.Extra["serve_rejections"] = float64(n)
	}
	for name, v := range d.Counters {
		if v > 0 && strings.HasPrefix(name, "rpc.client.requests.") {
			typ := strings.ToLower(strings.TrimPrefix(name, "rpc.client.requests."))
			m.Extra["rpc_"+typ] = float64(v)
		}
	}
	for phase, col := range map[string]string{
		"encode": "enc_s", "network": "net_s", "execute": "exec_s", "decode": "dec_s",
	} {
		if h, ok := d.Histograms["rpc.client.phase."+phase]; ok && h.Count > 0 {
			m.Extra[col] = h.Sum
		}
	}
}
