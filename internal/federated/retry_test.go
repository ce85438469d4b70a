package federated_test

import (
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exdra/internal/federated"
	"exdra/internal/fedrpc"
	"exdra/internal/netem"
	"exdra/internal/privacy"
)

func TestRetryableBatchClassification(t *testing.T) {
	retryable := [][]fedrpc.Request{
		{{Type: fedrpc.Read}, {Type: fedrpc.Put}},
		{{Type: fedrpc.Get}},
		{{Type: fedrpc.ExecInst}},
		{{Type: fedrpc.Clear}},
		{},
	}
	for i, reqs := range retryable {
		if !federated.RetryableBatch(reqs) {
			t.Errorf("batch %d should be retryable", i)
		}
	}
	// Any UDF poisons the batch: side effects may not be idempotent.
	if federated.RetryableBatch([]fedrpc.Request{{Type: fedrpc.Get}, {Type: fedrpc.ExecUDF}}) {
		t.Error("batch with EXEC_UDF must not be retryable")
	}
}

// TestRetryRecoversFromInjectedResets is the recovery half of the
// acceptance criterion: with netem resetting each worker connection once
// mid-transfer, a distribute + consolidate round trip completes via the
// coordinator's redial-and-retry path.
func TestRetryRecoversFromInjectedResets(t *testing.T) {
	cl := startCluster(t, 3)
	// Reset each worker connection once, 16 KB into the stream: well below
	// the ~43 KB per-partition PUT, so every first PUT attempt dies.
	// ResetPerAddr keeps the redialed connections alive so the budget is
	// spent one reset per worker, not three on the first.
	faults := netem.NewFaults(netem.FaultConfig{
		Seed: 7, ConnResets: 3, ResetAfterBytes: 16 << 10, ResetPerAddr: true,
	})
	coord := federated.NewCoordinator(fedrpc.Options{Netem: netem.Config{Faults: faults}},
		federated.Policy{Attempts: 3, Backoff: time.Millisecond, Seed: 1})
	defer coord.Close()

	x := randMat(3, 600, 27)
	fx, err := federated.Distribute(coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatalf("distribute did not survive injected resets: %v", err)
	}
	got, err := fx.Consolidate()
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualApprox(x, 0) {
		t.Fatal("round trip corrupted data")
	}
	if s := faults.Stats(); s.Resets != 3 {
		t.Fatalf("fault stats = %+v, want all 3 resets consumed", s)
	}
}

// TestNoRetryFailsFastWithoutLeaks is the fail-fast half of the acceptance
// criterion: with retries disabled, an injected reset surfaces as a clean
// error and the aborted distribute leaves no objects behind on any worker.
func TestNoRetryFailsFastWithoutLeaks(t *testing.T) {
	cl := startCluster(t, 3)
	faults := netem.NewFaults(netem.FaultConfig{Seed: 7, ConnResets: 1, ResetAfterBytes: 16 << 10})
	coord := federated.NewCoordinator(fedrpc.Options{Netem: netem.Config{Faults: faults}}, federated.Policy{})
	defer coord.Close() // zero policy: fail fast

	x := randMat(3, 600, 27)
	_, err := federated.Distribute(coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err == nil {
		t.Fatal("distribute should fail without retries")
	}
	for i, w := range cl.Workers {
		if n := w.NumObjects(); n != 0 {
			t.Errorf("worker %d leaked %d objects after aborted distribute", i, n)
		}
	}
}

// TestParallelCallPartialFailureCleansUp covers the partial-failure path of
// a parallel federated operation: one partition's instruction fails while
// the others succeed and bind outputs; the coordinator must reclaim those
// outputs instead of leaking them (satellite 4).
func TestParallelCallPartialFailureCleansUp(t *testing.T) {
	cl := startCluster(t, 3)
	x := randMat(5, 30, 4)
	fx := distribute(t, cl, x, federated.RowPartitioned)

	baseline := make([]int, len(cl.Workers))
	for i, w := range cl.Workers {
		baseline[i] = w.NumObjects()
	}

	// Corrupt the middle partition's data ID: its exec fails worker-side
	// while the outer partitions succeed and create output bindings.
	fm := fx.Map()
	fm.Partitions[1].DataID = 999999
	bad, err := federated.FromMap(cl.Coord, fm)
	if err != nil {
		t.Fatal(err)
	}
	// removeEmpty reads its reply (the kept-row counts), so it is sent, not
	// deferred; the sweep of the outer partitions' outputs rides the outbox.
	if _, err := bad.RemoveEmptyRows(); err == nil {
		t.Fatal("removeEmpty over a dangling partition should fail")
	}
	if err := cl.Coord.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, w := range cl.Workers {
		if n := w.NumObjects(); n != baseline[i] {
			t.Errorf("worker %d: %d objects after aborted op, want %d (no leak)", i, n, baseline[i])
		}
	}
}

// TestParallelCallReportsLowestPartitionError pins the deterministic
// error-reporting contract: when several partitions fail, the reported
// error is that of the lowest-indexed one, not of whichever goroutine
// happened to finish first.
func TestParallelCallReportsLowestPartitionError(t *testing.T) {
	cl := startCluster(t, 3)
	x := randMat(6, 30, 4)
	// Public data: only the dangling partitions fail the GET, so the error
	// choice among them is what's under test.
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	fm := fx.Map()
	fm.Partitions[1].DataID = 888888
	fm.Partitions[2].DataID = 999999
	bad, err := federated.FromMap(cl.Coord, fm)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		_, err := bad.Consolidate()
		if err == nil {
			t.Fatal("consolidate over dangling partitions should fail")
		}
		if !strings.Contains(err.Error(), fm.Partitions[1].Addr) {
			t.Fatalf("trial %d: error %q does not name the lowest failing partition %s",
				trial, err, fm.Partitions[1].Addr)
		}
	}
}

// TestClientDialCoalesces asserts the per-address in-flight dial guard:
// concurrent Client calls for one address share a single dial instead of
// racing redundant connections (satellite 2).
func TestClientDialCoalesces(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepts atomic.Int32
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			defer c.Close()
			// Echoing the client's prelude is a valid handshake answer.
			_, _ = io.CopyN(c, c, 5)
		}
	}()
	coord := federated.NewCoordinator(fedrpc.Options{}, federated.Policy{})
	defer coord.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := coord.Client(ln.Addr().String()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := accepts.Load(); n != 1 {
		t.Fatalf("%d dials for one address, want 1 (coalesced)", n)
	}
}

// TestSlowDialDoesNotBlockCoordinator asserts that dialing happens outside
// the coordinator lock: while one Client call is stuck dialing an
// unresponsive address, byte-counter accessors and dials to healthy
// workers proceed (satellite 2).
func TestSlowDialDoesNotBlockCoordinator(t *testing.T) {
	cl := startCluster(t, 1)
	coord := federated.NewCoordinator(fedrpc.Options{DialTimeout: 2 * time.Second}, federated.Policy{})
	defer coord.Close()
	dialDone := make(chan struct{})
	go func() {
		// A blackhole address: the dial hangs until DialTimeout on most
		// networks, or fails fast where unroutable — either way it must
		// not hold the coordinator lock while in flight.
		coord.Client("10.255.255.1:9")
		close(dialDone)
	}()
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	_ = coord.BytesSent()
	if _, err := coord.Client(cl.Addrs[0]); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("healthy-path operations blocked %v behind a slow dial", d)
	}
	select {
	case <-dialDone:
	case <-time.After(5 * time.Second):
		t.Fatal("blackhole dial never returned")
	}
}
