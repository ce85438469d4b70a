package fedtest_test

import (
	"errors"
	"sync/atomic"
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
	"exdra/internal/worker"
)

// Test UDFs for the restart suite, registered once for the process (the
// registry is global, like http.Handle).
var (
	udfExecCount atomic.Int64 // executions of fedtest_count_obj
)

func init() {
	// fedtest_mkobj binds a small deterministic matrix to call.Output —
	// a stand-in for UDF-born state (e.g. a paramserv model) that the
	// coordinator cannot replay.
	worker.MustRegisterUDF("fedtest_mkobj", func(w *worker.Worker, call *fedrpc.UDFCall) (fedrpc.Payload, error) {
		w.PutMatrix(call.Output, matrix.NewDenseData(1, 2, []float64{3, 7}), privacy.Public)
		return fedrpc.Payload{}, nil
	})
	// fedtest_count_obj counts its executions and binds an output object,
	// exercising the EXEC_UDF non-retry contract (at-most-once, no leaks).
	worker.MustRegisterUDF("fedtest_count_obj", func(w *worker.Worker, call *fedrpc.UDFCall) (fedrpc.Payload, error) {
		udfExecCount.Add(1)
		w.PutMatrix(call.Output, matrix.NewDenseData(1, 1, []float64{1}), privacy.Public)
		return fedrpc.ScalarPayload(1), nil
	})
}

// trainLM distributes x across the cluster and trains the federated linear
// model, returning the weights.
func trainLM(t *testing.T, cl *fedtest.Cluster, x, y *matrix.Dense) *matrix.Dense {
	t.Helper()
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.PrivateAggregation)
	if err != nil {
		t.Fatal(err)
	}
	res, err := algo.LM(fx, y, algo.LMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Weights
}

// TestLMTrainingSurvivesWorkerRestart is the e2e acceptance test of the
// restart-recovery work: a worker is killed and restarted — fresh process
// state, same port — after its partition was placed, and once more
// asynchronously while conjugate-gradient training is running. The run
// completes and the weights are bitwise-equal to a fault-free federated
// run: lineage replay restores the exact PUT payloads, and all CG state
// lives at the coordinator.
func TestLMTrainingSurvivesWorkerRestart(t *testing.T) {
	x, y := data.Regression(4, 600, 32, 0.05)

	// Fault-free reference run on a pristine cluster.
	ref, err := fedtest.Start(fedtest.Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Close)
	want := trainLM(t, ref, x, y)

	cl, err := fedtest.Start(fedtest.Config{
		Workers: 3,
		Policy:  federated.Policy{Attempts: 3, Backoff: time.Millisecond, Seed: 1},
		Metrics: obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.PrivateAggregation)
	if err != nil {
		t.Fatal(err)
	}
	// Kill and restart worker 1 after its partition was placed: the next
	// operation touching it must detect the new epoch and replay the
	// partition from the creation log.
	if err := cl.RestartWorker(1); err != nil {
		t.Fatal(err)
	}

	// Second restart mid-training: run CG in the background and yank
	// worker 0 once training demonstrably progressed (bytes beyond the
	// distribute volume mean at least one mmchain round-trip completed).
	afterDistribute := cl.Coord.BytesReceived()
	type lmOut struct {
		res *algo.LMResult
		err error
	}
	done := make(chan lmOut, 1)
	go func() {
		res, err := algo.LM(fx, y, algo.LMConfig{})
		done <- lmOut{res, err}
	}()
	restarted := false
	for !restarted {
		select {
		case out := <-done:
			// Training outran the poller; the deterministic restart above
			// still exercised recovery. Validate and finish.
			checkRecoveredRun(t, cl, out.res, out.err, want)
			return
		default:
		}
		if cl.Coord.BytesReceived() > afterDistribute {
			if err := cl.RestartWorker(0); err != nil {
				t.Fatal(err)
			}
			restarted = true
		} else {
			time.Sleep(200 * time.Microsecond)
		}
	}
	out := <-done
	checkRecoveredRun(t, cl, out.res, out.err, want)
}

func checkRecoveredRun(t *testing.T, cl *fedtest.Cluster, res *algo.LMResult, err error, want *matrix.Dense) {
	t.Helper()
	if err != nil {
		t.Fatalf("federated training did not survive the worker restart: %v", err)
	}
	if !res.Weights.EqualApprox(want, 0) {
		t.Fatal("recovered training is not bitwise-equal to the fault-free run")
	}
	checkReplayed(t, cl.Registry())
}

// checkReplayed asserts the fed.* counters of a run that healed a restart: a
// detected restart, replayed objects, no replay the worker rejected.
func checkReplayed(t *testing.T, reg *obs.Registry) {
	t.Helper()
	restarts := reg.Counter("fed.restarts_detected").Value()
	replayed := reg.Counter("fed.objects_replayed").Value()
	rejected := reg.Counter("fed.replay_failures").Value()
	if restarts < 1 || replayed < 1 || rejected != 0 {
		t.Fatalf("%d restarts detected, %d objects replayed, %d replay failures; want >= 1, >= 1, 0",
			restarts, replayed, rejected)
	}
}

// TestRestartRecoveryIsAlwaysOn: restart recovery needs no opt-in. A plain
// retry policy trains LM through a worker restart that landed after the
// partitions were placed, to weights bitwise-equal to a fault-free run, by
// replaying the lost partition from the creation log.
func TestRestartRecoveryIsAlwaysOn(t *testing.T) {
	x, y := data.Regression(4, 600, 20, 0.05)
	ref, err := fedtest.Start(fedtest.Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Close)
	want := trainLM(t, ref, x, y)

	cl, err := fedtest.Start(fedtest.Config{
		Workers: 3,
		Policy:  federated.Policy{Attempts: 3, Backoff: time.Millisecond, Seed: 1},
		Metrics: obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.PrivateAggregation)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.RestartWorker(1); err != nil {
		t.Fatal(err)
	}
	res, err := algo.LM(fx, y, algo.LMConfig{})
	checkRecoveredRun(t, cl, res, err, want)
}

// TestUDFStateUnrecoverable: objects created by EXEC_UDF cannot be
// replayed. After a restart, an operation needing such an object must fail
// fast with the typed ErrUnrecoverable — a precise message, not "unknown
// object" noise — even though retries are enabled and recovery always is.
func TestUDFStateUnrecoverable(t *testing.T) {
	cl, err := fedtest.Start(fedtest.Config{
		Workers: 1,
		Policy:  federated.Policy{Attempts: 3, Backoff: time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	addr := cl.Addrs[0]

	id := cl.Coord.NewID()
	if _, err := cl.Coord.ExecUDF(addr, &fedrpc.UDFCall{Name: "fedtest_mkobj", Output: id}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Coord.Fetch(addr, id); err != nil {
		t.Fatalf("fetch of UDF-created object before restart: %v", err)
	}
	if err := cl.RestartWorker(0); err != nil {
		t.Fatal(err)
	}
	_, err = cl.Coord.Fetch(addr, id)
	if err == nil {
		t.Fatal("fetch of UDF-created object should fail after restart")
	}
	if !errors.Is(err, federated.ErrUnrecoverable) {
		t.Fatalf("error does not identify unrecoverable UDF state: %v", err)
	}
}

// TestExecUDFNotRetried asserts the EXEC_UDF non-retry contract end to
// end: a transport fault during an EXEC_UDF exchange surfaces the original
// injected error — never a silent replay — the UDF runs at most once, and
// the failed call leaves no objects behind on the worker.
func TestExecUDFNotRetried(t *testing.T) {
	faults := netem.NewFaults(netem.FaultConfig{
		Seed: 7, ConnResets: 1, ResetAfterBytes: 1,
	})
	cl, err := fedtest.Start(fedtest.Config{
		Workers: 1,
		Faults:  faults,
		Policy:  federated.Policy{Attempts: 3, Backoff: time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	udfExecCount.Store(0)
	id := cl.Coord.NewID()
	_, err = cl.Coord.ExecUDF(cl.Addrs[0], &fedrpc.UDFCall{Name: "fedtest_count_obj", Output: id})
	if err == nil {
		t.Fatal("EXEC_UDF should fail on the injected reset, not be retried into success")
	}
	if !errors.Is(err, netem.ErrInjectedReset) {
		t.Fatalf("error does not surface the injected reset: %v", err)
	}
	if n := udfExecCount.Load(); n > 1 {
		t.Fatalf("UDF executed %d times across a transport fault, want at most once", n)
	}
	if n := cl.Workers[0].NumObjects(); n != 0 {
		t.Fatalf("worker holds %d objects after failed EXEC_UDF, want none", n)
	}
}

// TestRestartCountedOnceAcrossSessions: two sessions share one fleet and
// each holds a partitioned matrix when a worker restarts. The restart is one
// event in /metrics — counted where the site's epoch changes, not once per
// session that notices — and both sessions still replay their own logs to
// results bitwise-equal to the ones from before the restart.
func TestRestartCountedOnceAcrossSessions(t *testing.T) {
	reg := obs.New()
	cl, err := fedtest.Start(fedtest.Config{
		Workers: 2,
		Policy:  federated.Policy{Attempts: 3, Backoff: time.Millisecond, Seed: 1},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	x, y := data.Regression(4, 300, 12, 0.05)
	train := func(fx *federated.Matrix) *matrix.Dense {
		t.Helper()
		res, err := algo.LM(fx, y, algo.LMConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Weights
	}
	var fxs []*federated.Matrix
	var want []*matrix.Dense
	for i := 0; i < 2; i++ {
		sess, err := cl.Fleet.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sess.Close)
		fx, err := federated.Distribute(sess, x, cl.Addrs, federated.RowPartitioned, privacy.PrivateAggregation)
		if err != nil {
			t.Fatal(err)
		}
		fxs = append(fxs, fx)
		want = append(want, train(fx))
	}
	if err := cl.RestartWorker(1); err != nil {
		t.Fatal(err)
	}
	for i, fx := range fxs {
		if got := train(fx); !got.EqualApprox(want[i], 0) {
			t.Fatalf("session %d: training after the restart is not bitwise-equal to before", i)
		}
	}
	if n := reg.Counter("fed.restarts_detected").Value(); n != 1 {
		t.Fatalf("fed.restarts_detected = %d after one restart seen by two sessions, want 1", n)
	}
	if n := reg.Counter("fed.objects_replayed").Value(); n < 2 {
		t.Fatalf("fed.objects_replayed = %d, want each session's partition replayed", n)
	}
	if n := reg.Counter("fed.replay_failures").Value(); n != 0 {
		t.Fatalf("fed.replay_failures = %d, want 0", n)
	}
}
