package fedtest_test

import (
	"errors"
	"testing"
	"time"

	"exdra/internal/algo"
	"exdra/internal/data"
	"exdra/internal/federated"
	"exdra/internal/fedrpc"
	"exdra/internal/fedtest"
	"exdra/internal/netem"
	"exdra/internal/obs"
	"exdra/internal/privacy"
)

// TestStalledWorkerDeadlineThenRecovery is the end-to-end acceptance test
// of the call budget:
//
//  1. A worker stalls mid-batch (netem freezes the connection inside the
//     PUT slab). The batch fails with the typed DEADLINE_EXCEEDED error
//     within ~2x the call budget — no hang, no indefinite retry.
//  2. The stall was one-shot. Full LM training then completes on a fresh
//     connection, with weights bitwise-equal to a fault-free federated run.
func TestStalledWorkerDeadlineThenRecovery(t *testing.T) {
	const budget = 400 * time.Millisecond
	faults := netem.NewFaults(netem.FaultConfig{
		Stalls:          1,
		StallFor:        30 * time.Second, // far beyond any deadline: a genuine hang without one
		StallAfterBytes: 1024,             // past the handshake, inside the PUT slab
	})
	reg := obs.New()
	cl, err := fedtest.Start(fedtest.Config{
		Workers: 1,
		Faults:  faults,
		Policy:  federated.Policy{CallTimeout: budget},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	x, y := data.Regression(4, 600, 20, 0.05)

	// Phase 1: the stalled batch fails with the typed deadline error within
	// ~2x the budget.
	start := time.Now()
	_, err = federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	elapsed := time.Since(start)
	if !errors.Is(err, fedrpc.ErrDeadlineExceeded) {
		t.Fatalf("stalled batch error = %v, want to wrap fedrpc.ErrDeadlineExceeded", err)
	}
	if elapsed > 2*budget {
		t.Fatalf("stalled batch took %v, want within 2x the %v budget", elapsed, budget)
	}
	if reg.Counter("fed.deadline_exceeded").Value() < 1 {
		t.Fatal("fed.deadline_exceeded not visible in metrics")
	}

	// Phase 2: training completes.
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatalf("post-recovery distribute failed: %v", err)
	}
	fed, err := algo.LM(fx, y, algo.LMConfig{})
	if err != nil {
		t.Fatalf("post-recovery training failed: %v", err)
	}

	// The recovered run must be bitwise-equal to a fault-free federation.
	ref, err := fedtest.Start(fedtest.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Close)
	refFx, err := federated.Distribute(ref.Coord, x, ref.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	refModel, err := algo.LM(refFx, y, algo.LMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !fed.Weights.EqualApprox(refModel.Weights, 0) {
		t.Fatal("recovered training is not bitwise-equal to the fault-free run")
	}

	if s := faults.Stats(); s.Stalls != 1 {
		t.Fatalf("fault stats = %+v, want the one planned stall", s)
	}
}
