package main_test

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"exdra/internal/algo"
	"exdra/internal/data"
	"exdra/internal/federated"
	"exdra/internal/fedrpc"
	"exdra/internal/obs"
	"exdra/internal/privacy"
)

// TestMetricsEndpointEndToEnd is the observability acceptance test: a real
// fedworker process is started with -metrics-addr, a federated LM is
// trained against it, and the worker's HTTP endpoint must then expose
// non-zero per-request-type RPC counts and execute-latency histograms. The
// coordinator side of the same run must carry byte totals and the
// queue/encode/network/execute/decode phase histograms.
func TestMetricsEndpointEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	bin := filepath.Join(t.TempDir(), "fedworker")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build fedworker: %v\n%s", err, out)
	}

	addr := freeAddr(t)
	cmd := exec.Command(bin, "-addr", addr, "-data", t.TempDir(), "-metrics-addr", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	// The worker announces its resolved metrics address on stdout.
	metricsURL := ""
	scanner := bufio.NewScanner(stdout)
	announce := make(chan string, 1)
	go func() {
		for scanner.Scan() {
			if rest, ok := strings.CutPrefix(scanner.Text(), "fedworker: metrics on "); ok {
				announce <- rest
				return
			}
		}
	}()
	select {
	case metricsURL = <-announce:
	case <-time.After(10 * time.Second):
		t.Fatal("fedworker never announced its metrics endpoint")
	}
	waitReachable(t, addr)

	// Train a small federated LM through the worker so every metric layer
	// (fedrpc client+server, worker dispatch) sees traffic.
	clientReg := obs.New()
	coord := federated.NewCoordinator(fedrpc.Options{Metrics: clientReg}, federated.Policy{})
	defer coord.Close()
	x, y := data.Regression(3, 200, 8, 0.05)
	fx, err := federated.Distribute(coord, x, []string{addr}, federated.RowPartitioned, privacy.PrivateAggregation)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := algo.LM(fx, y, algo.LMConfig{MaxIterations: 5}); err != nil {
		t.Fatal(err)
	}

	// Worker-side metrics over HTTP (JSON form).
	resp, err := http.Get(metricsURL + "?format=json")
	if err != nil {
		t.Fatalf("scrape %s: %v", metricsURL, err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode /metrics json: %v", err)
	}
	for _, c := range []string{
		"rpc.server.batches",
		"rpc.server.requests.PUT",
		"rpc.server.requests.EXEC_INST",
		"worker.requests.EXEC_INST",
	} {
		if snap.Counters[c] == 0 {
			t.Errorf("worker /metrics: counter %s is zero: %v", c, snap.Counters)
		}
	}
	if snap.Histograms["rpc.server.execute_seconds"].Count == 0 {
		t.Error("worker /metrics: rpc.server.execute_seconds histogram is empty")
	}

	// Coordinator-side metrics from the same run.
	cs := clientReg.Snapshot()
	if cs.Counters["rpc.client.calls"] == 0 || cs.Counters["rpc.client.requests.EXEC_INST"] == 0 {
		t.Errorf("client metrics missing rpc counts: %v", cs.Counters)
	}
	if cs.Counters["rpc.client.bytes_out"] == 0 || cs.Counters["rpc.client.bytes_in"] == 0 {
		t.Errorf("client metrics missing byte totals: %v", cs.Counters)
	}
	for _, phase := range []string{"queue", "encode", "network", "execute", "decode"} {
		if cs.Histograms["rpc.client.phase."+phase].Count == 0 {
			t.Errorf("client phase histogram %s is empty", phase)
		}
	}
}
