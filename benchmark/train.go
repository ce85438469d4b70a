package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"exdra/internal/algo"
	"exdra/internal/engine"
	"exdra/internal/federated"
	"exdra/internal/fedtest"
	"exdra/internal/matrix"
	"exdra/internal/netem"
	"exdra/internal/nn"
	"exdra/internal/obs"
	"exdra/internal/paramserv"
	"exdra/internal/privacy"
)

// trainSteps are the six steps of one training pass, in order.
var trainSteps = []string{"lm", "l2svm", "mlogreg", "kmeans", "pca", "ffn"}

// trainData is the generated input of the train workloads: one feature
// matrix with eight Gaussian clusters, and the label vectors the
// supervised steps train against (labels stay at the coordinator, §6.1).
type trainData struct {
	x               *matrix.Dense
	yReg, yCls, yMC *matrix.Dense
	seed            int64
}

func genTrain(seed int64, rows, cols int) trainData {
	rng := rand.New(rand.NewSource(seed))
	const k, classes = 8, 4
	centers := matrix.Randn(rng, k, cols, 0, 1.5)
	x := matrix.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		c := centers.Row(rng.Intn(k))
		row := x.Row(i)
		for j := range row {
			row[j] = c[j] + rng.NormFloat64()
		}
	}
	scale := 1 / math.Sqrt(float64(cols))
	wReg := matrix.Randn(rng, cols, 1, 0, scale)
	wCls := matrix.Randn(rng, cols, 1, 0, scale)
	wMC := matrix.Randn(rng, cols, classes, 0, scale)
	yReg := x.MatMul(wReg)
	yCls := x.MatMul(wCls)
	yMC := x.MatMul(wMC).RowIndexMax()
	for i := 0; i < rows; i++ {
		yReg.Data()[i] += 0.05 * rng.NormFloat64()
		s := 1.0
		if yCls.Data()[i] < 0 {
			s = -1
		}
		if rng.Float64() < 0.01 {
			s = -s
		}
		yCls.Data()[i] = s
	}
	return trainData{x: x, yReg: yReg, yCls: yCls, yMC: yMC, seed: seed}
}

// trainOut is what one pass of the training script computed.
type trainOut struct {
	lm, l2svm, mlogreg *matrix.Dense
	centroids          *matrix.Dense
	wcss               float64
	pcaValues, pcaComp *matrix.Dense
	ffnLoss            float64
	stepSeconds        map[string]float64
}

// trainPass runs the six-step script once on x, which is the federated
// matrix or, for the plain baseline, the local one: the script is the same.
func trainPass(r *run, x engine.Mat, d trainData) (out trainOut, wall time.Duration) {
	r.beginPass()
	out.stepSeconds = map[string]float64{}
	id := r.tr.begin("pass")
	start := time.Now()
	timed := func(name string, fn func() error) {
		out.stepSeconds[name] = r.step(name, fn).Seconds()
	}
	timed("lm", func() error {
		res, err := algo.LM(x, d.yReg, algo.LMConfig{MaxIterations: 25})
		if err == nil {
			out.lm = res.Weights
		}
		return err
	})
	timed("l2svm", func() error {
		res, err := algo.L2SVM(x, d.yCls, algo.L2SVMConfig{MaxIterations: 15})
		if err == nil {
			out.l2svm = res.Weights
		}
		return err
	})
	timed("mlogreg", func() error {
		res, err := algo.MLogReg(x, d.yMC, algo.MLogRegConfig{MaxOuterIter: 3, MaxInnerIter: 5})
		if err == nil {
			out.mlogreg = res.Weights
		}
		return err
	})
	timed("kmeans", func() error {
		res, err := algo.KMeans(x, algo.KMeansConfig{K: 8, MaxIterations: 10, Seed: d.seed})
		if err == nil {
			out.centroids, out.wcss = res.Centroids, res.WCSS
		}
		return err
	})
	timed("pca", func() error {
		res, proj, err := algo.PCA(x, algo.PCAConfig{K: 10})
		if err == nil {
			out.pcaValues, out.pcaComp = res.Values, res.Components
			engine.Free(proj)
		}
		return err
	})
	timed("ffn", func() error {
		cfg := paramserv.Config{
			Spec:       nn.FFNSpec(x.Cols(), 64, 4, nn.LossSoftmaxCE),
			Optimizer:  nn.OptimizerConfig{Kind: "nesterov", LR: 0.02, Mu: 0.9},
			UpdateType: paramserv.BSP, Epochs: 1, BatchSize: 256, Seed: d.seed,
		}
		var res *paramserv.Result
		var err error
		if fx, ok := x.(*federated.Matrix); ok {
			res, err = paramserv.TrainFederated(cfg, fx, d.yMC)
		} else {
			res, err = paramserv.TrainLocal(cfg, x.(*matrix.Dense), d.yMC, 2)
		}
		if err == nil && len(res.Losses) == 0 {
			err = fmt.Errorf("parameter server reported no loss")
		}
		if err == nil {
			out.ffnLoss = res.Losses[len(res.Losses)-1]
		}
		return err
	})
	wall = time.Since(start)
	r.tr.end(id, nil)
	return out, wall
}

// sameBits reports whether two matrices are bitwise equal.
func sameBits(a, b *matrix.Dense) bool {
	if a == nil || b == nil || a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i, v := range a.Data() {
		if math.Float64bits(v) != math.Float64bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

func wantBits(what string, got, first *matrix.Dense) error {
	if !sameBits(got, first) {
		return fmt.Errorf("%s differs bitwise from the first pass", what)
	}
	return nil
}

func wantApprox(what string, got, want *matrix.Dense, tol float64) error {
	if got == nil || want == nil || !got.EqualApprox(want, tol) {
		return fmt.Errorf("%s differs from the local baseline by more than %g", what, tol)
	}
	return nil
}

// checkTrain verifies one federated pass: bitwise against the first pass
// wherever the repository asserts determinism, within 1e-9 relative for the
// BSP loss, and against the local baseline with the tolerances of the
// repository's own federated-vs-local tests (algo_test.go). K-Means seeds
// differently under PrivateAggregation, so it is checked for determinism
// only.
func checkTrain(r *run, got, first, local trainOut) {
	r.check("lm", wantBits("LM weights", got.lm, first.lm))
	r.check("lm", wantApprox("LM weights", got.lm, local.lm, 1e-6))
	r.check("l2svm", wantBits("L2SVM weights", got.l2svm, first.l2svm))
	r.check("l2svm", wantApprox("L2SVM weights", got.l2svm, local.l2svm, 1e-5))
	r.check("mlogreg", wantBits("MLogReg weights", got.mlogreg, first.mlogreg))
	r.check("mlogreg", wantApprox("MLogReg weights", got.mlogreg, local.mlogreg, 1e-5))
	r.check("kmeans", wantBits("K-Means centroids", got.centroids, first.centroids))
	if got.wcss != first.wcss {
		r.check("kmeans", fmt.Errorf("K-Means WCSS %g differs from the first pass's %g", got.wcss, first.wcss))
	}
	r.check("pca", wantBits("PCA eigenvalues", got.pcaValues, first.pcaValues))
	r.check("pca", wantApprox("PCA eigenvalues", got.pcaValues, local.pcaValues, 1e-6))
	if got.pcaComp != nil && local.pcaComp != nil {
		// Eigenvector signs are arbitrary; compare magnitudes.
		r.check("pca", wantApprox("PCA components", got.pcaComp.Unary(matrix.UAbs), local.pcaComp.Unary(matrix.UAbs), 1e-6))
	}
	if math.Abs(got.ffnLoss-first.ffnLoss) > 1e-9*math.Abs(first.ffnLoss) {
		r.check("ffn", fmt.Errorf("FFN loss %g differs from the first pass's %g", got.ffnLoss, first.ffnLoss))
	}
}

// federate puts x at the two workers, row-partitioned, for one pass: every
// pass gets a fresh copy outside its clock, and release ends the pass with
// clearWorkers.
func federate(r *run, cl *fedtest.Cluster, x *matrix.Dense, level privacy.Level) (*federated.Matrix, func(), error) {
	before := objectCounts(cl)
	// Start every pass from a collected heap, so that one pass's garbage is
	// not collected on the next one's clock.
	runtime.GC()
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, level)
	if err != nil {
		return nil, nil, err
	}
	return fx, func() { clearWorkers(r, cl, before) }, nil
}

// runTrain is lan-train and wan-train: the six-step training script on a
// row-partitioned X under PrivateAggregation, closed loop, one pass at a
// time.
func runTrain(r *run) error {
	sh := r.cfg.shapes
	wan := r.cfg.workload == "wan-train"
	rows, cols, link := sh.lanRows, sh.lanCols, netem.LAN()
	if wan {
		rows, cols, link = sh.wanRows, sh.wanCols, netem.WAN()
	}
	if r.cfg.link != nil {
		link = *r.cfg.link
	}
	if err := calibrateLink(r, link); err != nil {
		return err
	}

	var d trainData
	var cl *fedtest.Cluster
	teardown, err := r.repeatSetup(func() (func(), error) {
		d = genTrain(r.cfg.seed, rows, cols)
		var err error
		if cl, err = r.startCluster(link, 0, nil); err != nil {
			return nil, err
		}
		// Warm-up: a whole pass on the unshaped link; on the WAN the LM
		// step alone, which dials both connections.
		quiet := r.quiet()
		fx, release, err := federate(quiet, cl, d.x, privacy.PrivateAggregation)
		if err == nil {
			if wan {
				_, err = algo.LM(fx, d.yReg, algo.LMConfig{MaxIterations: 25})
			} else {
				trainPass(quiet, fx, d)
			}
			release()
		}
		if err == nil {
			err = quiet.firstFailure()
		}
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		// A torn-down set-up lets go of its data too, so that the next
		// one does not allocate beside it.
		return func() { cl.Close(); cl, d = nil, trainData{} }, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	// The plain baseline the federated outputs are checked against.
	quiet := r.quiet()
	local, _ := trainPass(quiet, d.x, d)
	if err := quiet.firstFailure(); err != nil {
		return fmt.Errorf("local baseline: %w", err)
	}
	if r.cfg.corrupt {
		local.lm = local.lm.AddScalar(1)
	}

	budget := r.passBudget()
	var first trainOut
	var wireMB []float64
	loopStart := time.Now()
	for len(wireMB) < minPasses || time.Since(loopStart) < budget {
		fx, release, err := federate(r, cl, d.x, privacy.PrivateAggregation)
		if err != nil {
			return err
		}
		bytes := cl.Coord.BytesSent() + cl.Coord.BytesReceived()
		var out trainOut
		err = r.clocked(func() (wall time.Duration) {
			out, wall = trainPass(r, fx, d)
			return wall
		})
		if err != nil {
			return err
		}
		wireMB = append(wireMB, float64(cl.Coord.BytesSent()+cl.Coord.BytesReceived()-bytes)/1e6)
		release()
		if len(wireMB) == 1 {
			first = out
		}
		checkTrain(r, out, first, local)
	}
	r.setPasses()
	checkWire(r, wireMB)

	if r.cfg.trace {
		return traceTrain(r, cl, d, first, local, median(r.rec.PassSeconds))
	}
	r.set("wire_mb", "MB", wireMB[0])
	fx, release, err := federate(r, cl, d.x, privacy.PrivateAggregation)
	if err != nil {
		return err
	}
	defer release()
	return interactiveOps(r, fx, d.x, d.yReg, link.Enabled())
}

// checkWire holds every pass's byte count against the first pass's. The
// count is exact but for the variable-length integers of the RPC envelope:
// object ids, which grow from pass to pass, the worker's random epoch, and
// the execute time every reply reports in nanoseconds. Together they move a
// pass by a few hundred bytes in megabytes (more, relatively, at the test's
// tiny scale), so wire_mb is the first timed pass's count and every later
// pass must agree with it to 1 %: a retried or repeated transfer would not.
func checkWire(r *run, wireMB []float64) {
	for i, mb := range wireMB {
		if math.Abs(mb-wireMB[0]) > 0.01*wireMB[0] {
			r.rec.Attempted++
			r.fail("wire_mb", fmt.Errorf("pass %d moved %g MB, the first pass %g MB", i+1, mb, wireMB[0]))
			return
		}
	}
}

// opTimes splits engine operation time by whether the operation issued
// RPCs — the paper's Fed LowerBound attribution, taken from outside: the
// instrumentation hook reports an operation when it completes, operations
// of a script run one after another, so an operation was federated exactly
// when the client call counter moved since the previous report.
type opTimes struct {
	mu        sync.Mutex
	calls     *obs.Counter
	lastCalls int64              // guarded by mu
	ops       int                // guarded by mu
	fedS      float64            // guarded by mu
	localS    float64            // guarded by mu
	byOp      map[string]float64 // guarded by mu
}

// instrument installs the engine hook for one traced pass: every operation
// becomes a leaf span under the step that issued it.
func (r *run) instrument() *opTimes {
	calls := r.reg.Counter("rpc.client.calls")
	t := &opTimes{calls: calls, lastCalls: calls.Value(), byOp: map[string]float64{}}
	engine.SetInstrumentation(func(op string, d time.Duration) {
		r.tr.leaf("engine."+op, d)
		now := t.calls.Value()
		t.mu.Lock()
		defer t.mu.Unlock()
		t.ops++
		t.byOp[op] += d.Seconds()
		if now != t.lastCalls {
			t.fedS += d.Seconds()
		} else {
			t.localS += d.Seconds()
		}
		t.lastCalls = now
	})
	return t
}

// record removes the hook and records the engine.* metrics.
func (t *opTimes) record(r *run) {
	engine.SetInstrumentation(nil)
	t.mu.Lock()
	defer t.mu.Unlock()
	r.set("engine.ops", "count", float64(t.ops))
	r.set("engine.fed_op_s", "s", t.fedS)
	r.set("engine.local_op_s", "s", t.localS)
	for _, op := range topOps {
		r.set("engine.top_op_s."+op, "s", t.byOp[op])
	}
}

// tracedPass brackets one pass with the tracer, the engine hook and a
// registry diff, and records what all workloads report about it: the
// engine split, the per-pass counts, the time no span explains and the
// cost of tracing. pass returns the pass's wall time.
func (r *run) tracedPass(untracedS float64, pass func() time.Duration) {
	r.tr = newTracer()
	ops := r.instrument()
	before := r.reg.Snapshot()
	wall := pass()
	counts := foldCounts(r.reg.Snapshot().Diff(before))
	ops.record(r)
	r.spans = r.tr.finish()
	r.tr = nil
	r.setPassCounts(counts)
	for _, s := range r.spans {
		if s.Name == "pass" {
			r.set("trace.unattributed_s", "s", s.Self)
		}
	}
	r.set("trace.overhead_ratio", "ratio", wall.Seconds()/untracedS)
}

// traceTrain is the traced run of a train workload: one more pass with
// spans at every boundary the benchmark calls through, the same script on
// the local matrix as the plain baseline, and the layer probes.
func traceTrain(r *run, cl *fedtest.Cluster, d trainData, first, local trainOut, untracedS float64) error {
	fx, release, err := federate(r, cl, d.x, privacy.PrivateAggregation)
	if err != nil {
		return err
	}
	var out trainOut
	r.tracedPass(untracedS, func() time.Duration {
		var wall time.Duration
		out, wall = trainPass(r, fx, d)
		return wall
	})
	release()
	checkTrain(r, out, first, local)
	// The scripts do their vector arithmetic on the coordinator outside the
	// engine: a script step's self time is coordinator-local compute too.
	localS := r.rec.Metrics["engine.local_op_s"].Value
	for _, s := range r.spans {
		if s.Parent >= 0 && r.spans[s.Parent].Name == "pass" && s.Name != "ffn" {
			localS += s.Self
		}
	}
	r.set("engine.local_op_s", "s", localS)
	for _, step := range trainSteps {
		name := "algo." + step + "_s"
		if step == "ffn" {
			name = "paramserv.ffn_s"
		}
		r.set(name, "s", out.stepSeconds[step])
	}

	quiet := r.quiet()
	var plainS []float64
	for i := 0; i < 3; i++ {
		_, wall := trainPass(quiet, d.x, d)
		plainS = append(plainS, wall.Seconds())
	}
	if err := quiet.firstFailure(); err != nil {
		return fmt.Errorf("local pass: %w", err)
	}
	r.set("algo.local_pass_s", "s", median(plainS))
	return layerProbes(r)
}
