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

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// TestStalledWorkerDeadlineBreakerRecovery is the end-to-end acceptance
// test of the deadline/breaker work, walking the full failure lifecycle:
//
//  1. A worker stalls mid-batch (netem freezes the connection inside the
//     PUT slab). The batch fails with the typed DEADLINE_EXCEEDED error
//     within ~2x the call budget — no hang, no indefinite retry.
//  2. The deadline blowout trips the worker's circuit breaker; the next
//     operation fails fast with ErrWorkerUnavailable without touching the
//     wire.
//  3. The stall clears; the fleet prober's next answered HEALTH probe
//     moves the breaker to half-open.
//  4. Full LM training then completes — the first real call is the
//     half-open trial and closes the breaker — with weights bitwise-equal
//     to a fault-free federated run.
//
// Breaker transitions are asserted in the metrics registry along the way.
func TestStalledWorkerDeadlineBreakerRecovery(t *testing.T) {
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
		// The prober is on because the breaker is. Its rounds are kept out
		// of phases 1-2 (under a second): phase 3 asks for one explicitly.
		Policy:  federated.Policy{CallTimeout: budget, BreakerThreshold: 1, ProbeInterval: time.Hour},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	addr := cl.Addrs[0]
	fleet := cl.Coord.Fleet()

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
	if got := fleet.BreakerState(addr); got != "open" {
		t.Fatalf("breaker after deadline blowout = %q, want open", got)
	}

	// Phase 2: while open, operations fail fast without touching the wire.
	start = time.Now()
	_, err = federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if !errors.Is(err, federated.ErrWorkerUnavailable) {
		t.Fatalf("open-breaker error = %v, want to wrap ErrWorkerUnavailable", err)
	}
	if d := time.Since(start); d > budget/2 {
		t.Fatalf("open breaker took %v to reject; fail-fast means no wire round trip", d)
	}
	if reg.Counter("fed.breaker.opens").Value() < 1 {
		t.Fatal("fed.breaker.opens not visible in metrics")
	}
	if reg.Counter("fed.breaker.rejections").Value() < 1 {
		t.Fatal("fed.breaker.rejections not visible in metrics")
	}
	if reg.Gauge("fed.breaker.open_count").Value() != 1 {
		t.Fatalf("fed.breaker.open_count = %d, want 1 while open", reg.Gauge("fed.breaker.open_count").Value())
	}

	// Phase 3: the stall was one-shot and its budget is spent; a HEALTH
	// probe gets through and half-opens the breaker.
	if err := fleet.Ping(addr); err != nil {
		t.Fatalf("probe after the stall cleared: %v", err)
	}
	if got := fleet.BreakerState(addr); got != "half-open" {
		t.Fatalf("breaker after an answered probe = %q, want half-open", got)
	}

	// Phase 4: training completes; the first call is the half-open trial.
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatalf("post-recovery distribute failed: %v", err)
	}
	fed, err := algo.LM(fx, y, algo.LMConfig{})
	if err != nil {
		t.Fatalf("post-recovery training failed: %v", err)
	}
	if got := fleet.BreakerState(addr); got != "closed" {
		t.Fatalf("breaker after successful trial = %q, want closed", got)
	}
	if reg.Counter("fed.breaker.half_opens").Value() < 1 || reg.Counter("fed.breaker.closes").Value() < 1 {
		t.Fatal("breaker half-open/close transitions not visible in metrics")
	}
	if reg.Gauge("fed.breaker.open_count").Value() != 0 {
		t.Fatalf("fed.breaker.open_count = %d after recovery, want 0", reg.Gauge("fed.breaker.open_count").Value())
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

// TestBreakerRecoversWithoutProbeInterval: a breaker with no probe interval
// configured still recovers — turning the breaker on starts the fleet prober
// at its default pace, so an open breaker can never be a dead end. And when
// the breaker trips between two attempts of one call, the load-shed error
// still matches the fault that tripped it.
func TestBreakerRecoversWithoutProbeInterval(t *testing.T) {
	faults := netem.NewFaults(netem.FaultConfig{Seed: 11, ConnResets: 1, ResetAfterBytes: 4 << 10})
	reg := obs.New()
	cl, err := fedtest.Start(fedtest.Config{
		Workers: 1,
		Faults:  faults,
		Policy:  federated.Policy{Attempts: 3, Backoff: time.Millisecond, Seed: 1, BreakerThreshold: 1},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	addr := cl.Addrs[0]
	fleet := cl.Coord.Fleet()

	// The reset fails attempt 1 and trips the breaker; attempt 2 is shed.
	x, _ := data.Regression(4, 600, 20, 0.05)
	_, err = federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if !errors.Is(err, federated.ErrWorkerUnavailable) {
		t.Fatalf("error = %v, want to wrap ErrWorkerUnavailable", err)
	}
	if !errors.Is(err, netem.ErrInjectedReset) {
		t.Fatalf("the reset that tripped the breaker is not matchable behind it: %v", err)
	}
	if got := fleet.BreakerState(addr); got != "open" {
		t.Fatalf("breaker after the reset = %q, want open", got)
	}
	waitFor(t, 10*time.Second, "the fleet prober to half-open the breaker", func() bool {
		return fleet.BreakerState(addr) == "half-open"
	})
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatalf("distribute after recovery: %v", err)
	}
	back, err := fx.Consolidate()
	if err != nil {
		t.Fatal(err)
	}
	if !back.EqualApprox(x, 0) {
		t.Fatal("round trip after recovery corrupted data")
	}
	if got := fleet.BreakerState(addr); got != "closed" {
		t.Fatalf("breaker after the trial = %q, want closed", got)
	}
	if n := reg.Counter("fed.probes").Value(); n < 1 {
		t.Fatal("the fleet prober never fired")
	}
}
