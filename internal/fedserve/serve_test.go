package fedserve_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"exdra/internal/algo"
	"exdra/internal/data"
	"exdra/internal/federated"
	"exdra/internal/fedserve"
	"exdra/internal/fedtest"
	"exdra/internal/matrix"
	"exdra/internal/obs"
	"exdra/internal/privacy"
)

// startFleet brings up an in-process federation plus a service over its
// shared fleet.
func startFleet(t *testing.T, workers, poolSize int, cfg fedserve.Config) (*fedtest.Cluster, *fedserve.Service) {
	t.Helper()
	cl, err := fedtest.Start(fedtest.Config{Workers: workers, PoolSize: poolSize, Metrics: cfg.Metrics})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	svc := fedserve.New(cl.Fleet, cfg)
	t.Cleanup(svc.Close)
	return cl, svc
}

// lmWeightBits runs one seeded LM training through coord over addrs and
// returns the exact bit patterns of the learned weights.
func lmWeightBits(t *testing.T, coord *federated.Coordinator, addrs []string, seed int64) []uint64 {
	t.Helper()
	x, y := data.Regression(seed, 240, 8, 0.01)
	fx, err := federated.Distribute(coord, x, addrs, federated.RowPartitioned, privacy.PrivateAggregation)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.Free()
	res, err := algo.LM(fx, y, algo.LMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	w := res.Weights.Data()
	bits := make([]uint64, len(w))
	for i, v := range w {
		bits[i] = math.Float64bits(v)
	}
	return bits
}

// TestConcurrentSessionsBitwiseEqualSolo is the acceptance e2e: K sessions
// train seeded LMs simultaneously over one shared 2-worker fleet, and each
// result is bitwise identical to the same seed trained alone on its own
// fleet. Interference of any kind — colliding worker objects, cross-session
// clears, pool-level response mixups — shows up as differing bits.
func TestConcurrentSessionsBitwiseEqualSolo(t *testing.T) {
	const K = 4
	seeds := []int64{11, 22, 33, 44}

	// Solo baselines: each seed on a private 2-worker federation.
	solo := make([][]uint64, K)
	for i, seed := range seeds {
		cl, err := fedtest.Start(fedtest.Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = lmWeightBits(t, cl.Coord, cl.Addrs, seed)
		cl.Close()
	}

	// The same seeds, concurrently, as sessions of one shared fleet.
	cl, svc := startFleet(t, 2, K, fedserve.Config{})
	got := make([][]uint64, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		sess, err := svc.Open()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, sess *fedserve.Session) {
			defer wg.Done()
			release, err := sess.Begin(0)
			if err != nil {
				t.Error(err)
				return
			}
			defer release()
			got[i] = lmWeightBits(t, sess.Coordinator(), cl.Addrs, seeds[i])
		}(i, sess)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := range seeds {
		if len(got[i]) != len(solo[i]) {
			t.Fatalf("seed %d: weight length %d vs solo %d", seeds[i], len(got[i]), len(solo[i]))
		}
		for j := range got[i] {
			if got[i][j] != solo[i][j] {
				t.Fatalf("seed %d: weight %d differs bitwise from solo run (%#x vs %#x)",
					seeds[i], j, got[i][j], solo[i][j])
			}
		}
	}

	// Every operation ended (release), so every deferred free was flushed:
	// idle sessions pin nothing at the workers.
	for i, w := range cl.Workers {
		if n := w.NumObjects(); n != 0 {
			t.Fatalf("worker %d: %d objects held by idle sessions after their operations ended", i, n)
		}
	}

	// Teardown leaves zero worker objects per namespace: each session parks
	// one input at the workers and leaves an operation on it deferred (issued
	// outside Begin, so nothing flushes it); its Close must drop the deferred
	// requests before its namespace CLEAR and take exactly its own objects.
	sessions := svc.Sessions()
	for _, sess := range sessions {
		x, _ := data.Regression(1, 20, 3, 0)
		fx, err := federated.Distribute(sess.Coordinator(), x, cl.Addrs, federated.RowPartitioned, privacy.Public)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fx.Unary(matrix.UAbs); err != nil {
			t.Fatal(err)
		}
	}
	for closed, sess := range sessions {
		sess.Close()
		for i, w := range cl.Workers {
			if n, want := w.NumObjects(), len(sessions)-1-closed; n != want {
				t.Fatalf("worker %d: %d objects after closing %d of %d sessions, want %d (one input per open session)",
					i, n, closed+1, len(sessions), want)
			}
		}
	}
}

// TestDrainFinishesInFlightAndLeaksNothing exercises the SIGTERM path:
// drain refuses new admissions, waits for in-flight batches, then removes
// every session's worker-side state.
func TestDrainFinishesInFlightAndLeaksNothing(t *testing.T) {
	cl, svc := startFleet(t, 2, 2, fedserve.Config{})
	sess, err := svc.Open()
	if err != nil {
		t.Fatal(err)
	}

	// Park an in-flight batch that holds real worker objects.
	release, err := sess.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := data.Regression(3, 60, 4, 0.01)
	fx, err := federated.Distribute(sess.Coordinator(), x, cl.Addrs, federated.RowPartitioned, privacy.PrivateAggregation)
	if err != nil {
		t.Fatal(err)
	}
	_ = fx

	drained := make(chan error, 1)
	go func() { drained <- svc.Drain(context.Background()) }()

	// New sessions and new batches are refused while draining.
	waitFor(t, func() bool {
		_, err := svc.Open()
		return errors.Is(err, fedserve.ErrDraining)
	})
	if _, err := sess.Begin(0); !errors.Is(err, fedserve.ErrDraining) {
		t.Fatalf("Begin during drain: got %v, want ErrDraining", err)
	}

	// Drain must be blocked on the in-flight batch.
	select {
	case err := <-drained:
		t.Fatalf("drain returned before in-flight batch finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	for i, w := range cl.Workers {
		if n := w.NumObjects(); n != 0 {
			t.Fatalf("worker %d: %d objects leaked through drain", i, n)
		}
	}
}

// TestDrainDeadlineBoundsShutdown: a batch that never completes cannot hang
// shutdown — drain gives up at its deadline, tears sessions down anyway,
// and reports the deadline error.
func TestDrainDeadlineBoundsShutdown(t *testing.T) {
	_, svc := startFleet(t, 1, 1, fedserve.Config{})
	sess, err := svc.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Begin(0); err != nil { // never released
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := svc.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with stuck batch: got %v, want deadline", err)
	}
	if svc.NumSessions() != 0 {
		t.Fatal("sessions survived deadline drain")
	}
}

// TestAdmissionControl: over-quota sessions and batches fail fast with the
// typed error, visible in serve.rejections.
func TestAdmissionControl(t *testing.T) {
	reg := obs.New()
	_, svc := startFleet(t, 1, 1, fedserve.Config{
		MaxSessions:      2,
		MaxInFlight:      2,
		MaxInFlightBytes: 1000,
		Metrics:          reg,
	})

	s1, err := svc.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Open(); !errors.Is(err, fedserve.ErrAdmissionRejected) {
		t.Fatalf("third session: got %v, want ErrAdmissionRejected", err)
	}
	if v := reg.Counter("serve.rejections").Value(); v != 1 {
		t.Fatalf("serve.rejections = %d, want 1", v)
	}

	// Batch-count quota.
	r1, err := s1.Begin(100)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s1.Begin(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Begin(100); !errors.Is(err, fedserve.ErrAdmissionRejected) {
		t.Fatalf("over MaxInFlight: got %v, want ErrAdmissionRejected", err)
	}
	r1()
	r1() // double release is a no-op, not a quota corruption

	// Byte quota: 100 in flight, 1000 max → 901 more must be refused,
	// 900 admitted.
	if _, err := s1.Begin(901); !errors.Is(err, fedserve.ErrAdmissionRejected) {
		t.Fatalf("over MaxInFlightBytes: got %v, want ErrAdmissionRejected", err)
	}
	r3, err := s1.Begin(900)
	if err != nil {
		t.Fatal(err)
	}
	r3()
	r2()
	if v := reg.Counter("serve.rejections").Value(); v != 3 {
		t.Fatalf("serve.rejections = %d, want 3", v)
	}

	// Closed sessions refuse work with the session-closed error, not a
	// quota error.
	s1.Close()
	if _, err := s1.Begin(0); !errors.Is(err, fedserve.ErrSessionClosed) {
		t.Fatalf("Begin on closed session: got %v, want ErrSessionClosed", err)
	}
}

// TestIdleReap: a session abandoned without Close is reaped after
// IdleTimeout and its worker objects reclaimed.
func TestIdleReap(t *testing.T) {
	reg := obs.New()
	cl, svc := startFleet(t, 2, 1, fedserve.Config{
		IdleTimeout:  150 * time.Millisecond,
		ReapInterval: 50 * time.Millisecond,
		Metrics:      reg,
	})
	sess, err := svc.Open()
	if err != nil {
		t.Fatal(err)
	}
	release, err := sess.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := data.Regression(5, 60, 4, 0.01)
	if _, err := federated.Distribute(sess.Coordinator(), x, cl.Addrs, federated.RowPartitioned, privacy.PrivateAggregation); err != nil {
		t.Fatal(err)
	}
	release()

	waitFor(t, func() bool { return svc.NumSessions() == 0 })
	if v := reg.Counter("serve.sessions.reaped").Value(); v != 1 {
		t.Fatalf("serve.sessions.reaped = %d, want 1", v)
	}
	// The reaper's scoped CLEAR runs after the session leaves the table;
	// poll until the workers are clean.
	waitFor(t, func() bool {
		for _, w := range cl.Workers {
			if w.NumObjects() != 0 {
				return false
			}
		}
		return true
	})
	if _, err := sess.Begin(0); !errors.Is(err, fedserve.ErrSessionClosed) {
		t.Fatalf("Begin on reaped session: got %v, want ErrSessionClosed", err)
	}
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
