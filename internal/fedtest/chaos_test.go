package fedtest_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"exdra/internal/algo"
	"exdra/internal/data"
	"exdra/internal/federated"
	"exdra/internal/fedrpc"
	"exdra/internal/fedtest"
	"exdra/internal/matrix"
	"exdra/internal/netem"
	"exdra/internal/obs"
	"exdra/internal/privacy"
)

// chaosTypedErr reports whether err belongs to the typed failure vocabulary
// a chaos run is allowed to end with. Anything outside it — an untyped
// error, or worse a silent success with wrong numbers — fails the test.
func chaosTypedErr(err error) bool {
	return errors.Is(err, netem.ErrInjectedReset) ||
		errors.Is(err, netem.ErrInjectedDrop) ||
		errors.Is(err, netem.ErrInjectedTruncation) ||
		errors.Is(err, fedrpc.ErrDeadlineExceeded) ||
		errors.Is(err, federated.ErrWorkerRestarted) ||
		errors.Is(err, context.DeadlineExceeded)
}

// TestChaosLMTrainingUnderByzantineFaults is the chaos harness acceptance
// test: LM training runs under a seeded combination of every byzantine
// fault mode at once — mid-slab truncation, single-byte corruption inside
// the float slabs, stall-then-reset, and threshold resets — with retries
// and a call budget enabled. The contract being asserted:
//
//   - never a hang: every run finishes inside a hard watchdog;
//   - never silent corruption: a run that reports success must produce
//     weights bitwise-equal to a fault-free federation (a corrupted slab
//     that slipped past the CRC would show up right here);
//   - failures are typed: a run that gives up must surface an error from
//     the protocol's typed vocabulary, not a mystery string.
//
// The retry budget deliberately exceeds the fault budget, so runs are
// expected to heal; the typed-error arm is the escape hatch, not the norm.
func TestChaosLMTrainingUnderByzantineFaults(t *testing.T) {
	x, y := data.Regression(4, 600, 20, 0.05)

	// Fault-free federated reference for the bitwise comparison.
	ref, err := fedtest.Start(fedtest.Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	refFx, err := federated.Distribute(ref.Coord, x, ref.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	refModel, err := algo.LM(refFx, y, algo.LMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()

	healed := 0
	var total netem.FaultStats
	for _, seed := range []int64{1, 7, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			faults := netem.NewFaults(netem.FaultConfig{
				Seed:               seed,
				ConnResets:         2,
				ResetAfterBytes:    12 << 10,
				ResetJitter:        0.5,
				Truncations:        2,
				TruncateAfterBytes: 9 << 10, // inside the ~32 KB per-worker PUT slab
				CorruptBytes:       2,
				CorruptAfterBytes:  6 << 10, // ditto: lands in raw float64 data
				Stalls:             1,
				StallFor:           100 * time.Millisecond,
				StallAfterBytes:    4 << 10,
				StallThenReset:     true,
			})
			cl, err := fedtest.Start(fedtest.Config{
				Workers: 3,
				Faults:  faults,
				Policy: federated.Policy{Attempts: 8, Backoff: time.Millisecond, Seed: seed,
					CallTimeout: 5 * time.Second},
				Metrics: obs.New(),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cl.Close)

			type outcome struct {
				weights *matrix.Dense
				err     error
			}
			done := make(chan outcome, 1)
			go func() {
				fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
				if err != nil {
					done <- outcome{err: err}
					return
				}
				model, err := algo.LM(fx, y, algo.LMConfig{})
				if err != nil {
					done <- outcome{err: err}
					return
				}
				done <- outcome{weights: model.Weights}
			}()

			var res outcome
			select {
			case res = <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("chaos run hung: no result within the watchdog window")
			}
			if res.err != nil {
				if !chaosTypedErr(res.err) {
					t.Fatalf("chaos run failed with an untyped error: %v", res.err)
				}
				t.Logf("seed %d gave up with typed error: %v", seed, res.err)
			} else {
				if !res.weights.EqualApprox(refModel.Weights, 0) {
					t.Fatal("chaos run reported success with weights not bitwise-equal to the fault-free run")
				}
				healed++
			}
			s := faults.Stats()
			if s.Resets+s.StallResets+s.Truncations+s.Corruptions == 0 {
				t.Fatalf("fault stats = %+v: no byzantine fault actually fired; the run proved nothing", s)
			}
			total.Resets += s.Resets
			total.Stalls += s.Stalls
			total.StallResets += s.StallResets
			total.Truncations += s.Truncations
			total.Corruptions += s.Corruptions
			t.Logf("seed %d fault stats: %+v", seed, s)
		})
	}
	if healed == 0 {
		t.Fatal("no chaos seed healed to a bitwise-equal result; retry budget is not doing its job")
	}
	// Across the seeds, every byzantine class must have reached the wire —
	// otherwise the harness only believes it covers them.
	if total.Truncations == 0 || total.Corruptions == 0 || total.Stalls == 0 {
		t.Fatalf("cumulative fault stats %+v: a byzantine fault class never fired across all seeds", total)
	}
}

// TestChaosPipelinedSessionsUnderResets interleaves two pipelined sessions
// (Window 8) over a size-1 pool — so both multiplex in-flight calls onto the
// same connection — while seeded mid-stream resets tear that connection down
// under them. The pipelining failure contract under test: a teardown fails
// every in-flight call on the session, the retry layer replays each one on a
// fresh transport, and neither session's result may differ by a single bit
// from a fault-free lock-step (Window 1) federation. A duplicate- or
// cross-delivered reply after a reset would land as wrong numbers right at
// the bitwise check.
func TestChaosPipelinedSessionsUnderResets(t *testing.T) {
	x, y := data.Regression(4, 600, 20, 0.05)

	// Fault-free lock-step reference: the acceptance bar says pipelined
	// recovery must be indistinguishable from the legacy exchange.
	ref, err := fedtest.Start(fedtest.Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	refFx, err := federated.Distribute(ref.Coord, x, ref.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	refModel, err := algo.LM(refFx, y, algo.LMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()

	healed := 0
	for _, seed := range []int64{3, 11} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			faults := netem.NewFaults(netem.FaultConfig{
				Seed:            seed,
				ConnResets:      3,
				ResetAfterBytes: 10 << 10, // mid-stream: inside a session's PUT slabs
				ResetJitter:     0.5,
			})
			cl, err := fedtest.Start(fedtest.Config{
				Workers:  3,
				Window:   8,
				PoolSize: 1, // both sessions share one pipelined conn per worker
				Faults:   faults,
				Policy: federated.Policy{Attempts: 8, Backoff: time.Millisecond, Seed: seed,
					CallTimeout: 5 * time.Second},
				Metrics: obs.New(),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cl.Close)

			type outcome struct {
				weights *matrix.Dense
				err     error
			}
			results := make(chan outcome, 2)
			for s := 0; s < 2; s++ {
				sess, err := cl.Fleet.NewSession()
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(sess.Close)
				go func(c *federated.Coordinator) {
					fx, err := federated.Distribute(c, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
					if err != nil {
						results <- outcome{err: err}
						return
					}
					model, err := algo.LM(fx, y, algo.LMConfig{})
					if err != nil {
						results <- outcome{err: err}
						return
					}
					results <- outcome{weights: model.Weights}
				}(sess)
			}

			for s := 0; s < 2; s++ {
				var res outcome
				select {
				case res = <-results:
				case <-time.After(60 * time.Second):
					t.Fatal("pipelined chaos run hung: no result within the watchdog window")
				}
				if res.err != nil {
					if !chaosTypedErr(res.err) {
						t.Fatalf("pipelined chaos run failed with an untyped error: %v", res.err)
					}
					t.Logf("seed %d session gave up with typed error: %v", seed, res.err)
					continue
				}
				if !res.weights.EqualApprox(refModel.Weights, 0) {
					t.Fatal("pipelined session reported success with weights not bitwise-equal to the lock-step run")
				}
				healed++
			}
			st := faults.Stats()
			if st.Resets == 0 {
				t.Fatalf("fault stats = %+v: no mid-stream reset actually fired; the run proved nothing", st)
			}
			t.Logf("seed %d fault stats: %+v", seed, st)
		})
	}
	if healed == 0 {
		t.Fatal("no pipelined session healed to a bitwise-equal result across any seed")
	}
}
