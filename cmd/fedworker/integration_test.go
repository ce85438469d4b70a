package main_test

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"exdra/internal/algo"
	"exdra/internal/federated"
	"exdra/internal/fedrpc"
	"exdra/internal/matrix"
	"exdra/internal/privacy"

	"math/rand"
)

// TestMultiProcessFederation exercises the real deployment path: two
// fedworker processes (separate OS processes, not goroutines) serve raw
// files; a coordinator in this process builds a federated matrix over them
// via read-on-demand and trains a model. This is Figure 4's topology with
// genuine process isolation.
func TestMultiProcessFederation(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	bin := filepath.Join(t.TempDir(), "fedworker")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build fedworker: %v\n%s", err, out)
	}

	rng := rand.New(rand.NewSource(71))
	var addrs []string
	var parts []*matrix.Dense
	var procs []*exec.Cmd
	for site := 0; site < 2; site++ {
		dir := t.TempDir()
		part := matrix.Randn(rng, 30+10*site, 5, 0, 1)
		if err := part.WriteBinaryFile(filepath.Join(dir, "data.bin")); err != nil {
			t.Fatal(err)
		}
		parts = append(parts, part)
		addr := freeAddr(t)
		cmd := exec.Command(bin, "-addr", addr, "-data", dir)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs = append(procs, cmd)
		addrs = append(addrs, addr)
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.Process.Kill()
			p.Wait()
		}
	})
	for _, addr := range addrs {
		waitReachable(t, addr)
	}

	fleet := federated.NewFleet(fedrpc.Options{}, 1, federated.Policy{})
	defer fleet.Close()
	coord, err := fleet.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	fx, err := federated.ReadRowPartitioned(coord, []federated.ReadSpec{
		{Addr: addrs[0], Filename: "data.bin", Privacy: privacy.PrivateAggregation},
		{Addr: addrs[1], Filename: "data.bin", Privacy: privacy.PrivateAggregation},
	})
	if err != nil {
		t.Fatal(err)
	}
	all := matrix.RBind(parts...)
	if fx.Rows() != all.Rows() || fx.Cols() != 5 {
		t.Fatalf("federated dims %dx%d", fx.Rows(), fx.Cols())
	}
	// Cross-process privacy enforcement.
	if _, err := fx.Consolidate(); err == nil {
		t.Fatal("cross-process consolidation of private data succeeded")
	}
	// Cross-process training: same script as in-process tests.
	wStar := matrix.Randn(rng, 5, 1, 0, 1)
	y := all.MatMul(wStar)
	fed, err := algo.LM(fx, y, algo.LMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	local, err := algo.LM(all, y, algo.LMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !fed.Weights.EqualApprox(local.Weights, 1e-6) {
		t.Fatal("multi-process federated LM differs from local")
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitReachable(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatal(fmt.Sprintf("worker at %s never became reachable", addr))
}
