package fedtest_test

import (
	"errors"
	"fmt"
	"strings"
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

// The restart/replay, chaos and deadline suites above train LM, whose every
// operation reads its reply, so they never see a merged batch. These tests
// put the same faults under scripts that defer: batches that carry earlier
// operations' requests with the call that flushes them.

// deferringScript trains L2SVM (a deferred X %*% s per outer iteration,
// flushed by the GET of its output) and MLogReg (deferred mm, softmax and
// frees per Newton step) and returns both weight matrices.
func deferringScript(coord *federated.Coordinator, addrs []string, x, ySVM, yMC *matrix.Dense) ([]*matrix.Dense, error) {
	fx, err := federated.Distribute(coord, x, addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		return nil, err
	}
	svm, err := algo.L2SVM(fx, ySVM, algo.L2SVMConfig{MaxIterations: 8})
	if err != nil {
		return nil, err
	}
	mlr, err := algo.MLogReg(fx, yMC, algo.MLogRegConfig{MaxOuterIter: 3, MaxInnerIter: 4})
	if err != nil {
		return nil, err
	}
	return []*matrix.Dense{svm.Weights, mlr.Weights}, nil
}

func deferringData() (x, ySVM, yMC *matrix.Dense) {
	x, yMC = data.MultiClass(4, 600, 16, 3)
	ySVM = matrix.NewDense(x.Rows(), 1)
	for i, c := range yMC.Data() {
		ySVM.Data()[i] = 1
		if c > 1 {
			ySVM.Data()[i] = -1
		}
	}
	return x, ySVM, yMC
}

func deferringReference(t *testing.T, x, ySVM, yMC *matrix.Dense) []*matrix.Dense {
	t.Helper()
	ref, err := fedtest.Start(fedtest.Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, err := deferringScript(ref.Coord, ref.Addrs, x, ySVM, yMC)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestChaosDeferredScriptsUnderByzantineFaults: the chaos contract of
// TestChaosLMTrainingUnderByzantineFaults — never a hang, success is
// bitwise-equal to fault-free, failure is typed — for merged batches: a
// retried flush re-sends the deferred prefix with the call that carries it.
func TestChaosDeferredScriptsUnderByzantineFaults(t *testing.T) {
	x, ySVM, yMC := deferringData()
	want := deferringReference(t, x, ySVM, yMC)
	healed := 0
	for _, seed := range []int64{1, 7, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			faults := netem.NewFaults(netem.FaultConfig{
				Seed:               seed,
				ConnResets:         3,
				ResetAfterBytes:    40 << 10, // past the distribute, inside training
				ResetJitter:        0.5,
				Truncations:        2,
				TruncateAfterBytes: 30 << 10,
				CorruptBytes:       2,
				CorruptAfterBytes:  6 << 10,
				Stalls:             1,
				StallFor:           100 * time.Millisecond,
				StallAfterBytes:    50 << 10,
				StallThenReset:     true,
			})
			reg := obs.New()
			cl, err := fedtest.Start(fedtest.Config{
				Workers: 3,
				Faults:  faults,
				Policy: federated.Policy{Attempts: 8, Backoff: time.Millisecond, Seed: seed,
					CallTimeout: 5 * time.Second},
				Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cl.Close)
			type outcome struct {
				weights []*matrix.Dense
				err     error
			}
			done := make(chan outcome, 1)
			go func() {
				w, err := deferringScript(cl.Coord, cl.Addrs, x, ySVM, yMC)
				done <- outcome{w, err}
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
				for i := range want {
					if !res.weights[i].EqualApprox(want[i], 0) {
						t.Fatalf("chaos run reported success with model %d not bitwise-equal to the fault-free run", i)
					}
				}
				healed++
			}
			s := faults.Stats()
			if s.Resets+s.StallResets+s.Truncations+s.Corruptions == 0 {
				t.Fatalf("fault stats = %+v: no fault fired; the run proved nothing", s)
			}
			if reg.Counter("fed.flushes").Value() == 0 {
				t.Fatal("the script sent no merged batch; the run proved nothing about deferral")
			}
		})
	}
	if healed == 0 {
		t.Fatal("no chaos seed healed to a bitwise-equal result")
	}
}

// TestDeferredBatchSurvivesRestartReplay: a worker restarts while operations
// are buffered for it. The merged batch that flushes them finds an empty
// symbol table, replay rebuilds what the whole batch needs (neededIDs sees
// the deferred requests too), and the creation log records the deferred
// creations from the real request list — a second restart replays them.
func TestDeferredBatchSurvivesRestartReplay(t *testing.T) {
	cl, err := fedtest.Start(fedtest.Config{
		Workers: 3,
		Policy:  federated.Policy{Attempts: 3, Backoff: time.Millisecond, Seed: 1},
		Metrics: obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	x, _ := data.Regression(4, 300, 12, 0.05)
	v := matrix.Fill(12, 1, 0.25)
	want := x.MatMul(v).Unary(matrix.UAbs)

	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	prod, _, err := fx.MatVec(v) // deferred: PUT, mm, rmvar per worker
	if err != nil {
		t.Fatal(err)
	}
	abs, err := prod.Unary(matrix.UAbs) // deferred behind it
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.RestartWorker(1); err != nil {
		t.Fatal(err)
	}
	got, err := abs.Consolidate() // the flush meets the restarted worker
	if err != nil {
		t.Fatalf("merged batch did not survive the restart: %v", err)
	}
	if !got.EqualApprox(want, 0) {
		t.Fatal("result after replay under a merged batch is not bitwise-equal to the local product")
	}
	checkReplayed(t, cl.Registry())

	// The deferred creations are in the log: after another restart the
	// chain X -> PUT v -> mm -> abs replays from it.
	if err := cl.RestartWorker(2); err != nil {
		t.Fatal(err)
	}
	if got, err = abs.Consolidate(); err != nil {
		t.Fatalf("deferred creations were not replayable: %v", err)
	}
	if !got.EqualApprox(want, 0) {
		t.Fatal("replayed deferred chain is not bitwise-equal to the local product")
	}
	if err := federated.Free(prod, abs, fx); err != nil {
		t.Fatal(err)
	}
	if err := cl.Coord.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, w := range cl.Workers {
		if n := w.NumObjects(); n != 0 {
			t.Errorf("worker %d holds %d objects after freeing everything", i, n)
		}
	}
}

// TestDeferredBatchDeadlineIsTyped: a merged batch that meets a stalled
// worker fails with the typed deadline error within ~2x the call budget,
// like any batch, and the error says deferred requests rode along.
func TestDeferredBatchDeadlineIsTyped(t *testing.T) {
	const budget = 400 * time.Millisecond
	x, _ := data.Regression(4, 200, 8, 0.05)
	faults := netem.NewFaults(netem.FaultConfig{
		Stalls:          1,
		StallFor:        30 * time.Second,
		StallAfterBytes: 8 << 10, // armed by the 12.8 KB distribute, fires on the next write: the merged batch
	})
	cl, err := fedtest.Start(fedtest.Config{Workers: 1, Faults: faults, Policy: federated.Policy{CallTimeout: budget}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	big, err := fx.BinaryLocal(matrix.OpAdd, x, false) // 12.8 KB broadcast, deferred
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = big.Sum()
	elapsed := time.Since(start)
	if !errors.Is(err, fedrpc.ErrDeadlineExceeded) {
		t.Fatalf("stalled merged batch error = %v, want to wrap fedrpc.ErrDeadlineExceeded", err)
	}
	if elapsed > 2*budget {
		t.Fatalf("stalled merged batch took %v, want within 2x the %v budget", elapsed, budget)
	}
	if !strings.Contains(err.Error(), "deferred requests (first: binary +)") {
		t.Fatalf("error does not say which deferred requests rode along: %v", err)
	}
	if faults.Stats().Stalls != 1 {
		t.Fatalf("fault stats = %+v: the stall did not fire inside the merged batch", faults.Stats())
	}
}

// TestDeferredRidingWithUDFIsNeverRetried pins the merge policy under an
// EXEC_UDF: deferred requests ride with the UDF in one batch, and that
// batch is never retried — the UDF runs at most once — even though a retry
// policy is set and the deferred prefix alone would be idempotent.
func TestDeferredRidingWithUDFIsNeverRetried(t *testing.T) {
	faults := netem.NewFaults(netem.FaultConfig{Seed: 7, ConnResets: 1, ResetAfterBytes: 1})
	reg := obs.New()
	cl, err := fedtest.Start(fedtest.Config{
		Workers: 1,
		Faults:  faults,
		Policy:  federated.Policy{Attempts: 3, Backoff: time.Millisecond, Seed: 1},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	addr := cl.Addrs[0]
	// A handle over an object that was never placed: the deferred
	// instruction needs no earlier exchange, so the merged batch is the
	// connection's first and meets the reset.
	ghost, err := federated.FromMap(cl.Coord, federated.FedMap{Rows: 2, Cols: 2, Partitions: []federated.Partition{{
		Range: federated.Range{RowBeg: 0, RowEnd: 2, ColBeg: 0, ColEnd: 2}, Addr: addr, DataID: cl.Coord.NewID()}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ghost.Unary(matrix.UAbs); err != nil {
		t.Fatal(err)
	}
	udfExecCount.Store(0)
	_, err = cl.Coord.ExecUDF(addr, &fedrpc.UDFCall{Name: "fedtest_count_obj", Output: cl.Coord.NewID()})
	if !errors.Is(err, netem.ErrInjectedReset) {
		t.Fatalf("merged UDF batch error = %v, want the injected reset", err)
	}
	if n := udfExecCount.Load(); n > 1 {
		t.Fatalf("UDF executed %d times, want at most once", n)
	}
	if n := reg.Counter("fed.retries").Value(); n != 0 {
		t.Fatalf("a batch holding an EXEC_UDF was retried %d times", n)
	}
	if n := reg.Counter("fed.flushes").Value(); n != 1 {
		t.Fatalf("fed.flushes = %d, want 1 (the deferred request rode with the UDF)", n)
	}
}

// fetchGroup queues the reads of a K-Means-style step over a deferred
// broadcast of b, forces them as one group, and returns each read's value
// and error.
func fetchGroup(coord *federated.Coordinator, addrs []string, x, b *matrix.Dense) (vals []*matrix.Dense, errs []error, err error) {
	fx, err := federated.Distribute(coord, x, addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		return nil, nil, err
	}
	d, err := fx.BinaryLocal(matrix.OpAdd, b, false) // deferred: rides with the group
	if err != nil {
		return nil, nil, err
	}
	group := []*federated.Value{
		d.QueueAggFull(matrix.AggSum), d.QueueColAgg(matrix.AggSum), fx.QueueTSMM(), d.QueueAlignedTMM(fx),
	}
	ferr := federated.Fetch(group...)
	for _, v := range group {
		val, err := v.Get()
		vals, errs = append(vals, val), append(errs, err)
	}
	if err := federated.Free(fx, d); err != nil {
		return nil, nil, err
	}
	return vals, errs, ferr
}

// TestFetchGroupUnderConnectionResets: a connection reset while a fetch
// group's batch is on the wire either heals by retry into the fault-free
// values, bit for bit, or fails every read of the group with a typed error —
// never a hang — and no object is left at any worker either way.
func TestFetchGroupUnderConnectionResets(t *testing.T) {
	xs, _ := data.Regression(6, 200, 6, 0.1)
	b := matrix.Fill(200, 6, 0.25) // 9.6 KB, so the group's batch crosses the reset threshold
	ref, err := fedtest.Start(fedtest.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := fetchGroup(ref.Coord, ref.Addrs, xs, b)
	ref.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, attempts := range []int{1, 3} {
		faults := netem.NewFaults(netem.FaultConfig{ConnResets: 2, ResetAfterBytes: 8 << 10, ResetPerAddr: true})
		cl, err := fedtest.Start(fedtest.Config{Workers: 2, Faults: faults,
			Policy: federated.Policy{Attempts: attempts, Backoff: time.Millisecond, Seed: 1}})
		if err != nil {
			t.Fatal(err)
		}
		type outcome struct {
			vals []*matrix.Dense
			errs []error
			err  error
		}
		done := make(chan outcome, 1)
		go func() {
			vals, errs, err := fetchGroup(cl.Coord, cl.Addrs, xs, b)
			done <- outcome{vals, errs, err}
		}()
		var res outcome
		select {
		case res = <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("attempts=%d: the fetch group hung under a connection reset", attempts)
		}
		if faults.Stats().Resets == 0 {
			t.Fatalf("attempts=%d: no reset fired", attempts)
		}
		if res.err == nil {
			for i, v := range res.vals {
				if !v.EqualApprox(want[i], 0) {
					t.Errorf("attempts=%d: read %d healed to a different value", attempts, i)
				}
			}
		} else {
			if !chaosTypedErr(res.err) {
				t.Errorf("attempts=%d: group failed with an untyped error: %v", attempts, res.err)
			}
			if len(res.errs) != len(want) {
				t.Fatalf("attempts=%d: the reset hit before the group: %v", attempts, res.err)
			}
			for i, err := range res.errs {
				if !chaosTypedErr(err) {
					t.Errorf("attempts=%d: read %d of the failed group: %v, want a typed error", attempts, i, err)
				}
			}
		}
		if (res.err == nil) != (attempts > 1) {
			t.Errorf("attempts=%d: group error %v; one reset per worker should fail a fail-fast policy and be retried away otherwise", attempts, res.err)
		}
		if err := cl.Coord.Flush(); err != nil {
			t.Fatalf("attempts=%d: %v", attempts, err)
		}
		for i, w := range cl.Workers {
			if n := w.NumObjects(); n != 0 {
				t.Errorf("attempts=%d: worker %d holds %d objects", attempts, i, n)
			}
		}
		cl.Close()
	}
}
