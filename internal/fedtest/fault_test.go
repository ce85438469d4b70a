package fedtest_test

import (
	"errors"
	"testing"
	"time"

	"exdra/internal/algo"
	"exdra/internal/data"
	"exdra/internal/federated"
	"exdra/internal/fedtest"
	"exdra/internal/netem"
	"exdra/internal/privacy"
)

// TestLMTrainingSurvivesConnResets is the end-to-end acceptance test of the
// fault-tolerance work: with netem resetting the connection to every worker
// once mid-run, a full federated pipeline — distribute, linear-model
// training, prediction — completes through reconnect and retry, and the
// result matches the fault-free local model exactly.
func TestLMTrainingSurvivesConnResets(t *testing.T) {
	faults := netem.NewFaults(netem.FaultConfig{
		Seed:            11,
		ConnResets:      3,
		ResetAfterBytes: 16 << 10, // below the ~34 KB per-worker PUT
		ResetPerAddr:    true,     // one reset per worker, redials survive
	})
	cl, err := fedtest.Start(fedtest.Config{
		Workers: 3,
		Faults:  faults,
		Policy:  federated.Policy{Attempts: 3, Backoff: time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	x, y := data.Regression(4, 600, 20, 0.05)
	local, err := algo.LM(x, y, algo.LMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.PrivateAggregation)
	if err != nil {
		t.Fatalf("distribute did not survive injected resets: %v", err)
	}
	fed, err := algo.LM(fx, y, algo.LMConfig{})
	if err != nil {
		t.Fatalf("federated training did not survive injected resets: %v", err)
	}
	if !fed.Weights.EqualApprox(local.Weights, 1e-6) {
		t.Fatal("recovered training diverged from the fault-free local model")
	}
	if s := faults.Stats(); s.Resets != 3 {
		t.Fatalf("fault stats = %+v, want one reset per worker (3)", s)
	}
}

// TestNoRetryFailsFastAndClean is the no-recovery half of the acceptance
// criterion: with retries disabled, the first injected reset surfaces as a
// clean, identifiable error and the aborted distribute leaves no objects on
// any worker.
func TestNoRetryFailsFastAndClean(t *testing.T) {
	faults := netem.NewFaults(netem.FaultConfig{
		Seed: 11, ConnResets: 1, ResetAfterBytes: 16 << 10,
	})
	cl, err := fedtest.Start(fedtest.Config{Workers: 3, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	x, _ := data.Regression(4, 600, 20, 0.05)
	start := time.Now()
	_, err = federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.PrivateAggregation)
	if err == nil {
		t.Fatal("distribute should fail without retries")
	}
	if !errors.Is(err, netem.ErrInjectedReset) {
		t.Fatalf("error does not identify the injected reset: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("fail-fast path took %v", d)
	}
	for i, w := range cl.Workers {
		if n := w.NumObjects(); n != 0 {
			t.Errorf("worker %d holds %d objects after aborted distribute", i, n)
		}
	}
}
