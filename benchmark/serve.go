package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"exdra/internal/algo"
	"exdra/internal/federated"
	"exdra/internal/fedserve"
	"exdra/internal/fedtest"
	"exdra/internal/matrix"
	"exdra/internal/netem"
	"exdra/internal/privacy"
)

// serveLink is the campus link of serve-mixed, and serveWindow exdrad's
// default pipelining window.
var serveLink = netem.Config{RTT: 10 * time.Millisecond, BandwidthBps: 20e6}

const serveWindow = 8

// serveState is one set-up of serve-mixed: the service over a fleet with
// one pipelined connection per worker, session A with its pre-distributed
// matrix, session B with its bulk matrix.
type serveState struct {
	cl          *fedtest.Cluster
	svc         *fedserve.Service
	a, b        *fedserve.Session
	x, y        *matrix.Dense // session A's data and the vector of t(X)y
	fx          *federated.Matrix
	bulk, bulkY *matrix.Dense
	cycleMB     float64 // coordinator bytes of one session-B cycle, measured alone
}

func (s *serveState) close() {
	s.svc.Close()
	s.cl.Close()
}

// bulkOut is what one cycle of session B produced.
type bulkOut struct {
	weights, back *matrix.Dense
	seconds       float64
	errs          []error // one entry per step, nil when it worked
}

// bulkCycle is session B's loop body, four operations: distribute the bulk
// matrix, train LM for five iterations on it, consolidate it back, and
// clear the session's worker-side objects.
func (s *serveState) bulkCycle() bulkOut {
	var out bulkOut
	start := time.Now()
	release, err := s.b.Begin(int64(s.bulk.Size()) * 8)
	if err != nil {
		out.errs = []error{err, err, err, err}
		return out
	}
	defer release()
	coord := s.b.Coordinator()
	fb, err := federated.Distribute(coord, s.bulk, s.cl.Addrs, federated.RowPartitioned, privacy.Public)
	out.errs = append(out.errs, err)
	if err == nil {
		var res *algo.LMResult
		if res, err = algo.LM(fb, s.bulkY, algo.LMConfig{MaxIterations: 5}); err == nil {
			out.weights = res.Weights
		}
		out.errs = append(out.errs, err)
		out.back, err = fb.Consolidate()
		out.errs = append(out.errs, err)
	} else {
		out.errs = append(out.errs, err, err)
	}
	out.errs = append(out.errs, coord.ClearAll())
	out.seconds = time.Since(start).Seconds()
	return out
}

func setupServe(r *run, link netem.Config) (*serveState, error) {
	sh := r.cfg.shapes
	rng := rand.New(rand.NewSource(r.cfg.seed))
	s := &serveState{
		x:    matrix.Randn(rng, sh.serveRows, sh.serveCols, 0, 1),
		y:    matrix.Randn(rng, sh.serveRows, 1, 0, 1),
		bulk: matrix.Randn(rng, sh.serveBulkRows, sh.serveBulkCols, 0, 1),
	}
	s.bulkY = s.bulk.MatMul(matrix.Randn(rng, sh.serveBulkCols, 1, 0, 0.1))
	var err error
	if s.cl, err = r.startCluster(link, serveWindow, nil); err != nil {
		return nil, err
	}
	s.svc = fedserve.New(s.cl.Fleet, fedserve.Config{Metrics: r.reg})
	fail := func(err error) (*serveState, error) {
		s.close()
		return nil, err
	}
	if s.a, err = s.svc.Open(); err != nil {
		return fail(err)
	}
	if s.b, err = s.svc.Open(); err != nil {
		return fail(err)
	}
	release, err := s.a.Begin(int64(s.x.Size()) * 8)
	if err != nil {
		return fail(err)
	}
	s.fx, err = federated.Distribute(s.a.Coordinator(), s.x, s.cl.Addrs, federated.RowPartitioned, privacy.PrivateAggregation)
	release()
	if err != nil {
		return fail(err)
	}
	// Warm-up: one cycle of B with A quiet, which also gives the exact
	// byte count of a cycle, and one round of A's operations.
	bytes := s.cl.Fleet.BytesSent() + s.cl.Fleet.BytesReceived()
	for _, err := range s.bulkCycle().errs {
		if err != nil {
			return fail(fmt.Errorf("warm-up cycle: %w", err))
		}
	}
	s.cycleMB = float64(s.cl.Fleet.BytesSent()+s.cl.Fleet.BytesReceived()-bytes) / 1e6
	for i := range explorerOps {
		if _, err := answer(i, s.fx, s.y); err != nil {
			return fail(fmt.Errorf("warm-up operation: %w", err))
		}
	}
	return s, nil
}

// window is the outcome of running the sessions for a fixed time.
type window struct {
	ms      []float64 // session A's latencies
	opErrs  []error   // one per operation of A, nil when right
	cycles  []bulkOut
	seconds float64
}

// cycleSeconds lists the durations of session B's cycles in the window.
func (w window) cycleSeconds() []float64 {
	cs := make([]float64, len(w.cycles))
	for i, c := range w.cycles {
		cs[i] = c.seconds
	}
	return cs
}

// runWindow runs session A's interactive loop for d, alone or with session
// B's bulk loop beside it. Both loops are closed: the next operation
// starts when the previous one returned.
func (s *serveState) runWindow(r *run, e *explorer, d time.Duration, withBulk bool) window {
	var w window
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	if withBulk {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c := s.bulkCycle()
				r.tr.leaf("B.cycle", time.Duration(c.seconds*float64(time.Second)))
				w.cycles = append(w.cycles, c)
			}
		}()
	}
	begin := func() (func(), error) { return s.a.Begin(0) }
	for i := 0; time.Now().Before(deadline); i++ {
		ms, err := e.op(i, s.fx, begin)
		r.tr.leaf("A."+explorerOps[i%len(explorerOps)].name, time.Duration(ms*float64(time.Millisecond)))
		w.ms = append(w.ms, ms)
		w.opErrs = append(w.opErrs, err)
	}
	wg.Wait()
	w.seconds = time.Since(start).Seconds()
	return w
}

// book counts a window's operations and checks session B's outputs: the
// consolidated matrix is the distributed one bitwise, LM's weights equal
// the first cycle's bitwise and the local model's within the tolerance of
// the repository's federated-vs-local LM test.
func (s *serveState) book(r *run, w window, first *bulkOut, localLM *matrix.Dense) {
	for _, err := range w.opErrs {
		r.count(err)
	}
	steps := []string{"B.distribute", "B.lm", "B.consolidate", "B.clear"}
	for i := range w.cycles {
		c := &w.cycles[i]
		if first.weights == nil {
			*first = *c
		}
		if c.errs[1] == nil {
			if err := wantBits("LM weights", c.weights, first.weights); err != nil {
				c.errs[1] = err
			} else {
				c.errs[1] = wantApprox("LM weights", c.weights, localLM, 1e-6)
			}
		}
		if c.errs[2] == nil {
			c.errs[2] = wantBits("consolidated matrix", c.back, s.bulk)
		}
		for j, err := range c.errs {
			r.rec.Attempted++
			if err != nil {
				r.fail(steps[j], err)
			}
		}
	}
}

// runServe is serve-mixed: an interactive session and a bulk session share
// one pipelined connection per worker behind the standing service.
func runServe(r *run) error {
	link := serveLink
	if r.cfg.link != nil {
		link = *r.cfg.link
	}
	if err := calibrateLink(r, link); err != nil {
		return err
	}
	var s *serveState
	teardown, err := r.repeatSetup(func() (func(), error) {
		var err error
		if s, err = setupServe(r, link); err != nil {
			return nil, err
		}
		return func() { s.close(); s = nil }, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	e, err := newExplorer(r, s.x, s.y)
	if err != nil {
		return err
	}
	local, err := algo.LM(s.bulk, s.bulkY, algo.LMConfig{MaxIterations: 5})
	if err != nil {
		return err
	}
	var first bulkOut
	objects := objectCounts(s.cl)
	leakCheck := func() {
		r.step("cleanup", func() error {
			for i, n := range objectCounts(s.cl) {
				if n != objects[i] {
					return fmt.Errorf("worker %d holds %d objects after the window, %d before it", i, n, objects[i])
				}
			}
			return nil
		})
	}
	total := time.Duration(r.cfg.seconds * float64(time.Second))

	if !r.cfg.trace {
		// B's cycles are the passes; the whole window is one reading of
		// the peak resident set.
		resetPeakRSS()
		w := s.runWindow(r, e, total, true)
		peak, err := peakRSSMB()
		if err != nil {
			return err
		}
		s.book(r, w, &first, local.Weights)
		leakCheck()
		if len(w.cycles) == 0 {
			return fmt.Errorf("session B finished no cycle in %v", total)
		}
		r.rec.PassSeconds, r.rec.PassPeakMB = w.cycleSeconds(), []float64{peak}
		r.setPasses()
		r.set("wire_mb", "MB", s.cycleMB)
		r.setInteractive(w.ms)
		return nil
	}

	// Traced run: A alone, then both sessions untraced, then both traced.
	solo := s.runWindow(r, e, total/5, false)
	s.book(r, solo, &first, local.Weights)
	plain := s.runWindow(r, e, total/3, true)
	s.book(r, plain, &first, local.Weights)
	if len(plain.cycles) == 0 {
		return fmt.Errorf("session B finished no cycle in %v", total/3)
	}
	before := r.reg.Snapshot()
	var traced window
	r.tracedPass(median(plain.cycleSeconds()), func() time.Duration {
		id := r.tr.begin("pass")
		traced = s.runWindow(r, e, total/3, true)
		r.tr.end(id, nil)
		return time.Duration(median(traced.cycleSeconds()) * float64(time.Second))
	})
	diff := r.reg.Snapshot().Diff(before)
	s.book(r, traced, &first, local.Weights)
	leakCheck()
	r.rec.Passes = len(traced.cycles)
	r.rec.Samples = len(traced.ms)

	soloP95 := percentile(solo.ms, 95)
	r.set("fedserve.interactive_solo_ms_p50", "ms", median(solo.ms))
	r.set("fedserve.interactive_solo_ms_p95", "ms", soloP95)
	if soloP95 > 0 {
		r.set("fedserve.interference_ratio", "ratio", percentile(traced.ms, 95)/soloP95)
	}
	r.set("fedserve.interactive_ms_p99", "ms", percentile(traced.ms, 99))
	r.set("fedserve.interactive_ops_per_s", "1/s", float64(len(traced.ms))/traced.seconds)
	r.set("fedserve.bulk_mb_per_s", "MB/s", float64(len(traced.cycles))*s.cycleMB/traced.seconds)
	r.set("fedserve.pool_waits", "count", float64(diff.Counters["serve.pool.waits"]))
	rejections := diff.Counters["serve.rejections"]
	r.set("fedserve.rejections", "count", float64(rejections))
	if rejections != 0 {
		r.rec.Attempted++
		r.fail("fedserve.rejections", fmt.Errorf("%d admissions rejected with no quota set", rejections))
	}
	ms, err := medianSeconds(10, func() error {
		sess, err := s.svc.Open()
		if err != nil {
			return err
		}
		sess.Close()
		return nil
	})
	if err != nil {
		return err
	}
	r.set("fedserve.open_close_ms", "ms", ms*1e3)
	return layerProbes(r)
}
