package federated_test

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exdra/internal/algo"
	"exdra/internal/data"
	"exdra/internal/engine"
	"exdra/internal/federated"
	"exdra/internal/fedrpc"
	"exdra/internal/fedtest"
	"exdra/internal/matrix"
	"exdra/internal/obs"
	"exdra/internal/privacy"
)

// The tests of the write-behind dispatch (dispatch.go). Their names carry
// Deferred, Dispatch or Flush so the ci.sh fault pattern re-runs them
// uncached under -race.

// results collects one script run's named outputs.
type results map[string]*matrix.Dense

func (r results) fed(t *testing.T, name string, m *federated.Matrix, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	d, err := m.Consolidate()
	r.local(t, name, d, err)
}

func (r results) local(t *testing.T, name string, d *matrix.Dense, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if _, dup := r[name]; dup {
		t.Fatalf("result %q recorded twice", name)
	}
	r[name] = d
}

func (r results) scalar(t *testing.T, name string, v float64, err error) {
	t.Helper()
	r.local(t, name, matrix.Fill(1, 1, v), err)
}

// wantSameBits fails unless the two runs produced the same outputs bit for
// bit (NaNs included).
func wantSameBits(t *testing.T, eager, deferred results) {
	t.Helper()
	if len(eager) != len(deferred) {
		t.Fatalf("eager run produced %d results, deferred run %d", len(eager), len(deferred))
	}
	for name, e := range eager {
		d := deferred[name]
		if d == nil || d.Rows() != e.Rows() || d.Cols() != e.Cols() {
			t.Errorf("%s: deferred result missing or misshapen", name)
			continue
		}
		for i, v := range e.Data() {
			if math.Float64bits(v) != math.Float64bits(d.Data()[i]) {
				t.Errorf("%s: cell %d is %v deferred, %v eager", name, i, d.Data()[i], v)
				break
			}
		}
	}
}

// wantNoObjects fails if any worker still holds a symbol-table binding.
func wantNoObjects(t *testing.T, cl *fedtest.Cluster, when string) {
	t.Helper()
	for i, w := range cl.Workers {
		if n := w.NumObjects(); n != 0 {
			t.Errorf("worker %d holds %d objects %s", i, n, when)
		}
	}
}

// bothWays runs script once with a flush forced after every deferring
// operation (eager) and once deferred, on one cluster, ending each run with
// ClearAll and the check that no worker object survives it.
func bothWays(t *testing.T, cl *fedtest.Cluster, script func(t *testing.T, cl *fedtest.Cluster) results) (eager, deferred results) {
	t.Helper()
	run := func(flushEveryOp bool) results {
		cl.Coord.SetFlushEveryOp(flushEveryOp)
		defer cl.Coord.SetFlushEveryOp(false)
		out := script(t, cl)
		if err := cl.Coord.ClearAll(); err != nil {
			t.Fatal(err)
		}
		wantNoObjects(t, cl, "after ClearAll")
		return out
	}
	return run(true), run(false)
}

// table1Script runs every operation class of Table 1 once, on row- and
// column-partitioned data.
func table1Script(t *testing.T, cl *fedtest.Cluster) results {
	out := results{}
	c := cl.Coord
	pos := func(seed int64, r, k int) *matrix.Dense {
		return randMat(seed, r, k).Apply(math.Abs).AddScalar(0.5)
	}
	xp, other := pos(100, 24, 6), pos(103, 24, 6)
	dist := func(x *matrix.Dense, addrs []string, s federated.Scheme) *federated.Matrix {
		m, err := federated.Distribute(c, x, addrs, s, privacy.Public)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	fx, fo := dist(xp, cl.Addrs, federated.RowPartitioned), dist(other, cl.Addrs, federated.RowPartitioned)
	cx, co := dist(xp, cl.Addrs, federated.ColPartitioned), dist(other, cl.Addrs, federated.ColPartitioned)

	// matmult
	v, b, w := randMat(101, 6, 2), randMat(102, 24, 2), pos(106, 24, 1)
	m, _, err := fx.MatVec(v)
	out.fed(t, "mm", m, err)
	d, err := fx.QueueTMatVec(b).Get()
	out.local(t, "tmm", d, err)
	d, err = fx.QueueTSMM().Get()
	out.local(t, "tsmm", d, err)
	d, err = fx.MMChain(v.SliceCols(0, 1), nil)
	out.local(t, "mmchain", d, err)
	d, err = fx.MMChain(v.SliceCols(0, 1), dist(w, cl.Addrs, federated.RowPartitioned))
	out.local(t, "mmchain weighted", d, err)
	d, err = fx.MMChain(randMat(108, 6, 3), dist(pos(109, 24, 3), cl.Addrs, federated.RowPartitioned))
	out.local(t, "mmchain weighted k=3", d, err)
	d, err = fo.QueueAlignedTMM(fx).Get()
	out.local(t, "aligned tmm", d, err)
	_, d, err = cx.MatVec(v)
	out.local(t, "colpart mm", d, err)
	d, err = cx.QueueTMatVec(b).Get()
	out.local(t, "colpart tmm", d, err)

	// aggregates
	for _, op := range []matrix.AggOp{matrix.AggSum, matrix.AggMin, matrix.AggMax,
		matrix.AggMean, matrix.AggVar, matrix.AggSD} {
		s, err := fx.AggFull(op)
		out.scalar(t, "agg "+op.String(), s, err)
		m, _, err = fx.RowAgg(op)
		out.fed(t, "rowAgg "+op.String(), m, err)
		_, d, err = fx.ColAgg(op)
		out.local(t, "colAgg "+op.String(), d, err)
	}
	_, d, err = cx.RowAgg(matrix.AggSum)
	out.local(t, "colpart rowAgg", d, err)
	m, _, err = cx.ColAgg(matrix.AggMean)
	out.fed(t, "colpart colAgg", m, err)

	// unary
	for _, op := range []matrix.UnaryOp{matrix.UAbs, matrix.UCos, matrix.UExp,
		matrix.UFloor, matrix.UIsNA, matrix.ULog, matrix.UNot, matrix.URound,
		matrix.USin, matrix.USign, matrix.USqrt, matrix.UTan, matrix.USigmoid} {
		m, err = fx.Unary(op)
		out.fed(t, "unary "+op.String(), m, err)
	}
	m, err = fx.Softmax()
	out.fed(t, "softmax", m, err)
	m, err = fx.Replace(xp.At(0, 0), -1)
	out.fed(t, "replace", m, err)

	// binary
	for _, op := range []matrix.BinaryOp{matrix.OpAdd, matrix.OpSub, matrix.OpMul,
		matrix.OpDiv, matrix.OpPow, matrix.OpMin, matrix.OpMax, matrix.OpMod,
		matrix.OpIntDiv, matrix.OpEq, matrix.OpNe, matrix.OpGt, matrix.OpGe,
		matrix.OpLt, matrix.OpLe, matrix.OpAnd, matrix.OpOr, matrix.OpXor} {
		m, err = fx.Binary(op, fo)
		out.fed(t, "binary "+op.String(), m, err)
	}
	m, err = cx.Binary(matrix.OpAdd, co)
	out.fed(t, "colpart binary", m, err)
	m, err = fx.Binary(matrix.OpSub, dist(other, cl.Addrs[:2], federated.RowPartitioned))
	out.fed(t, "unaligned binary", m, err)
	for i, operand := range []*matrix.Dense{pos(107, 1, 6), w, other, matrix.Fill(1, 1, 3)} {
		m, err = fx.BinaryLocal(matrix.OpMul, operand, false)
		out.fed(t, fmt.Sprintf("binary local %dx%d #%d", operand.Rows(), operand.Cols(), i), m, err)
	}
	m, err = fx.BinaryLocal(matrix.OpDiv, other, true)
	out.fed(t, "binary local swapped", m, err)
	m, err = fx.BinaryScalar(matrix.OpPow, 2, false)
	out.fed(t, "binary scalar", m, err)
	m, err = fx.BinaryScalar(matrix.OpSub, 2, true)
	out.fed(t, "binary scalar swapped", m, err)

	// ternary, quaternary (the wsloss chain of TestTable1Coverage)
	cond, err := fx.BinaryScalar(matrix.OpGt, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	m, err = cond.IfElse(matrix.Fill(1, 1, 1), matrix.Fill(1, 1, -1))
	out.fed(t, "ifelse", m, err)
	uv := randMat(104, 24, 2).MatMul(randMat(105, 6, 2).Transpose())
	fuv, err := fx.BinaryLocal(matrix.OpSub, uv, false)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := fuv.Binary(matrix.OpMul, fuv)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sq.Sum()
	out.scalar(t, "wsloss chain", s, err)

	// reorg
	m, err = fx.RowIndexMax()
	out.fed(t, "rowIndexMax", m, err)
	m, err = fx.Slice(3, 20, 1, 5)
	out.fed(t, "slice", m, err)
	m, err = fx.Transpose()
	out.fed(t, "transpose", m, err)
	m, err = cx.Transpose()
	out.fed(t, "colpart transpose", m, err)
	m, err = fx.RemoveEmptyRows()
	out.fed(t, "removeEmpty", m, err)
	return out
}

// TestDeferredEqualsEagerTable1: every Table 1 operation, deferred, yields
// bit for bit what it yields with a flush after every operation.
func TestDeferredEqualsEagerTable1(t *testing.T) {
	cl := startCluster(t, 3)
	eager, deferred := bothWays(t, cl, table1Script)
	wantSameBits(t, eager, deferred)
	if len(eager) < 75 {
		t.Fatalf("table 1 script recorded only %d results", len(eager))
	}
}

// algoScript trains and applies every federated algorithm of internal/algo.
func algoScript(t *testing.T, cl *fedtest.Cluster) results {
	out := results{}
	fed := func(x *matrix.Dense) *federated.Matrix {
		m, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	x, y := data.Regression(1, 300, 10, 0.05)
	lm, err := algo.LM(fed(x), y, algo.LMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	out.local(t, "lm weights", lm.Weights, nil)
	d, err := lm.Predict(fed(x))
	out.local(t, "lm predict", d, err)

	x, y = data.Classification(2, 300, 10, 0.02)
	svm, err := algo.L2SVM(fed(x), y, algo.L2SVMConfig{MaxIterations: 12})
	if err != nil {
		t.Fatal(err)
	}
	out.local(t, "l2svm weights", svm.Weights, nil)
	d, err = svm.Predict(fed(x))
	out.local(t, "l2svm predict", d, err)

	x, y = data.MultiClass(4, 240, 8, 4)
	mlr, err := algo.MLogReg(fed(x), y, algo.MLogRegConfig{MaxOuterIter: 4, MaxInnerIter: 6})
	if err != nil {
		t.Fatal(err)
	}
	out.local(t, "mlogreg weights", mlr.Weights, nil)

	x, _ = data.Blobs(5, 240, 6, 4, 0.5)
	km, err := algo.KMeans(fed(x), algo.KMeansConfig{K: 4, MaxIterations: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	out.local(t, "kmeans centroids", km.Centroids, nil)
	out.scalar(t, "kmeans wcss", km.WCSS, nil)

	x, _ = data.Blobs(6, 200, 12, 3, 1)
	fx := fed(x)
	pca, proj, err := algo.PCA(fx, algo.PCAConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	out.local(t, "pca values", pca.Values, nil)
	out.local(t, "pca components", pca.Components, nil)
	out.fed(t, "pca projection", proj.(*federated.Matrix), nil)
	return out
}

// TestDeferredEqualsEagerAlgorithms: the same for the algorithm scripts.
func TestDeferredEqualsEagerAlgorithms(t *testing.T) {
	cl := startCluster(t, 3)
	eager, deferred := bothWays(t, cl, algoScript)
	wantSameBits(t, eager, deferred)
}

// TestDeferredPutOwnsItsPayload: a script that mutates the broadcast operand
// in place after a deferred MatVec returned must not change what is sent.
func TestDeferredPutOwnsItsPayload(t *testing.T) {
	cl := startCluster(t, 2)
	x := randMat(7, 20, 4)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	v := randMat(8, 4, 1)
	want := x.MatMul(v)
	prod, _, err := fx.MatVec(v)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Coord.Pending(cl.Addrs[0]) == 0 {
		t.Fatal("MatVec on row partitions was not deferred")
	}
	for i := range v.Data() {
		v.Data()[i] = 1e9
	}
	got, err := prod.Consolidate()
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualApprox(want, 0) {
		t.Fatal("deferred MatVec sent the operand as mutated after the call")
	}
}

// TestDeferredFailureSurfacesAtFlushNamed: a deferred operation that fails
// at the worker surfaces at the next call that flushes it, named; handles of
// healthy operations keep working; nothing leaks.
func TestDeferredFailureSurfacesAtFlushNamed(t *testing.T) {
	cl := startCluster(t, 3)
	x := randMat(5, 30, 4)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	baseline := make([]int, len(cl.Workers))
	for i, w := range cl.Workers {
		baseline[i] = w.NumObjects()
	}

	healthy, err := fx.Unary(matrix.UAbs)
	if err != nil {
		t.Fatal(err)
	}
	// The map claims 30x4, so the local shape check passes; the middle
	// partition's object does not exist, so its worker rejects the add.
	fm := fx.Map()
	fm.Partitions[1].DataID = 999999
	dangling, err := federated.FromMap(cl.Coord, fm)
	if err != nil {
		t.Fatal(err)
	}
	broken, err := healthy.Binary(matrix.OpAdd, dangling)
	if err != nil {
		t.Fatalf("a deferred operation reported its worker-side failure early: %v", err)
	}
	after, err := healthy.BinaryScalar(matrix.OpMul, 2, false)
	if err != nil {
		t.Fatal(err)
	}

	_, err = after.Sum() // the first call that needs a value flushes all three
	if err == nil {
		t.Fatal("the deferred failure never surfaced")
	}
	if !strings.Contains(err.Error(), "deferred binary +") || !strings.Contains(err.Error(), cl.Addrs[1]) {
		t.Fatalf("error does not name the deferred operation and its worker: %v", err)
	}

	// Operations on healthy handles still work, including the one that was
	// buffered behind the failing request.
	got, err := after.Consolidate()
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualApprox(x.Unary(matrix.UAbs).Scale(2), 0) {
		t.Fatal("operation buffered behind the failing one produced a wrong result")
	}
	if s, err := healthy.Sum(); err != nil || math.Abs(s-x.Unary(matrix.UAbs).Sum()) > 1e-9 {
		t.Fatalf("healthy handle after a deferred failure: %v, %v", s, err)
	}

	if err := federated.Free(healthy, broken, after); err != nil {
		t.Fatal(err)
	}
	if err := cl.Coord.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, w := range cl.Workers {
		if n := w.NumObjects(); n != baseline[i] {
			t.Errorf("worker %d holds %d objects, want %d (no leak)", i, n, baseline[i])
		}
	}
}

// TestDispatchCapsSendImmediately: a batch that does not fit under the
// outbox caps is sent at once with what is pending, so the buffer stays
// bounded and bulk PUTs never wait in it.
func TestDispatchCapsSendImmediately(t *testing.T) {
	cl := startCluster(t, 1)
	addr := cl.Addrs[0]
	x := randMat(9, 40000, 1) // 320 KB: one partition, larger than the byte cap
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	if 8*x.Size() <= federated.MaxPendingBytes {
		t.Fatal("test matrix does not exceed the byte cap")
	}
	big, err := fx.BinaryLocal(matrix.OpAdd, x, false)
	if err != nil {
		t.Fatal(err)
	}
	if n := cl.Coord.Pending(addr); n != 0 {
		t.Fatalf("an over-cap broadcast left %d requests pending", n)
	}
	if cl.Workers[0].NumObjects() != 2 {
		t.Fatalf("over-cap operation did not execute at once: %d objects", cl.Workers[0].NumObjects())
	}

	// One-request operations fill the request cap; the one that overflows
	// it flushes everything.
	cur := big
	for i := 0; i < federated.MaxPendingRequests; i++ {
		if cur, err = cur.BinaryScalar(matrix.OpAdd, 1, false); err != nil {
			t.Fatal(err)
		}
		if n := cl.Coord.Pending(addr); n != i+1 {
			t.Fatalf("after %d deferred operations %d requests are pending", i+1, n)
		}
	}
	if cur, err = cur.BinaryScalar(matrix.OpAdd, 1, false); err != nil {
		t.Fatal(err)
	}
	if n := cl.Coord.Pending(addr); n != 0 {
		t.Fatalf("overflowing the request cap left %d requests pending", n)
	}
	got, err := cur.Slice(0, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	head, err := got.Consolidate()
	if err != nil {
		t.Fatal(err)
	}
	want := x.Slice(0, 3, 0, 1).Scale(2).AddScalar(float64(federated.MaxPendingRequests + 1))
	if !head.EqualApprox(want, 1e-9) {
		t.Fatal("chain across a cap flush produced a wrong result")
	}
}

// TestFlushMetricsAndSpanTag: the coordinator's own registry counts deferred
// requests and flushes, and the flushing call's span says how many deferred
// requests rode along.
func TestFlushMetricsAndSpanTag(t *testing.T) {
	reg := obs.New()
	cl, err := fedtest.Start(fedtest.Config{Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	x := randMat(11, 20, 3)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot()
	prod, _, err := fx.MatVec(randMat(12, 3, 1)) // PUT + mm + rmvar per worker
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prod.Sum(); err != nil { // + ua_partial, GET, rmvar
		t.Fatal(err)
	}
	d := reg.Snapshot().Diff(before)
	if n := d.Counters["fed.deferred_requests"]; n != 6 {
		t.Errorf("fed.deferred_requests = %d, want 6", n)
	}
	if n := d.Counters["fed.flushes"]; n != 2 {
		t.Errorf("fed.flushes = %d, want 2", n)
	}
	if h := d.Histograms["fed.flush_batch_requests"]; h.Count != 2 || h.Sum != 12 {
		t.Errorf("fed.flush_batch_requests: %d batches, %g requests, want 2 and 12", h.Count, h.Sum)
	}
	if n := d.Counters["rpc.client.calls"]; n != 2 {
		t.Errorf("two operations cost %d calls, want 2 (one per worker)", n)
	}
	tagged := 0
	for _, sp := range reg.Spans() {
		if sp.Deferred == 3 && sp.Batch == 6 && sp.Op == "agg sum" && strings.Contains(sp.String(), "deferred=3") {
			tagged++
		}
	}
	if tagged != 2 {
		t.Errorf("%d spans tagged deferred=3 batch=6, want 2", tagged)
	}
}

// TestDeferredFreeIsOneRmvarPerWorker: freeing several matrices at once
// costs one rmvar per worker and no call of its own.
func TestDeferredFreeIsOneRmvarPerWorker(t *testing.T) {
	reg := obs.New()
	cl, err := fedtest.Start(fedtest.Config{Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	var ms []engine.Mat
	for i := 0; i < 3; i++ {
		fx, err := federated.Distribute(cl.Coord, randMat(int64(20+i), 10, 2), cl.Addrs, federated.RowPartitioned, privacy.Public)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, fx)
	}
	before := reg.Snapshot()
	engine.Free(ms...)
	for _, addr := range cl.Addrs {
		if n := cl.Coord.Pending(addr); n != 1 {
			t.Fatalf("freeing three matrices queued %d requests at %s, want 1", n, addr)
		}
	}
	if n := reg.Snapshot().Diff(before).Counters["rpc.client.calls"]; n != 0 {
		t.Fatalf("Free cost %d calls", n)
	}
	if err := cl.Coord.Flush(); err != nil {
		t.Fatal(err)
	}
	wantNoObjects(t, cl, "after the flush")
}

// TestCallFlushesDeferred: a caller-composed Call carries what is pending
// for that worker ahead of its own requests, and reports a deferred failure
// instead of hiding it.
func TestCallFlushesDeferred(t *testing.T) {
	cl := startCluster(t, 2)
	fx, err := federated.Distribute(cl.Coord, randMat(13, 10, 2), cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	abs, err := fx.Unary(matrix.UAbs)
	if err != nil {
		t.Fatal(err)
	}
	resps, err := cl.Coord.Call(cl.Addrs[0], fedrpc.Request{Type: fedrpc.Get, ID: abs.Map().Partitions[0].DataID})
	if err != nil || !resps[0].OK || resps[0].Data.Matrix() == nil {
		t.Fatalf("GET of a deferred output: %v %+v", err, resps)
	}
	if n := cl.Coord.Pending(cl.Addrs[0]); n != 0 {
		t.Fatalf("%d requests still pending after Call", n)
	}
	if n := cl.Coord.Pending(cl.Addrs[1]); n != 1 {
		t.Fatalf("Call(%s) touched the other worker's outbox (%d pending)", cl.Addrs[0], n)
	}

	fm := fx.Map()
	fm.Partitions[0].DataID = 999999
	dangling, err := federated.FromMap(cl.Coord, fm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dangling.Unary(matrix.UAbs); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Coord.Call(cl.Addrs[0], fedrpc.Request{Type: fedrpc.Health}); err == nil || !strings.Contains(err.Error(), "deferred abs") {
		t.Fatalf("Call hid the deferred failure: %v", err)
	}
}

// TestDeferredProgramOrderUnderConcurrency: goroutines sharing one
// coordinator over pipelined, pooled connections each defer an operation
// and then read its output; no read may overtake the batch that creates
// what it reads, whoever's call ends up carrying it. Run under -race.
func TestDeferredProgramOrderUnderConcurrency(t *testing.T) {
	cl, err := fedtest.Start(fedtest.Config{Workers: 2, PoolSize: 4, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	coord, err := cl.Fleet.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	x := randMat(14, 40, 3)
	fx, err := federated.Distribute(coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				k := float64(g*100 + i)
				m, err := fx.BinaryScalar(matrix.OpAdd, k, false)
				if err != nil {
					errs <- err
					return
				}
				got, err := m.Sum()
				if err != nil {
					errs <- fmt.Errorf("goroutine %d step %d: %w", g, i, err)
					return
				}
				if want := x.Sum() + k*float64(x.Size()); math.Abs(got-want) > 1e-6 {
					errs <- fmt.Errorf("goroutine %d step %d: sum %g, want %g", g, i, got, want)
					return
				}
				if err := m.Free(); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := coord.ClearAll(); err != nil {
		t.Fatal(err)
	}
	wantNoObjects(t, cl, "after ClearAll")
}

// TestClearAllDropsDeferred: teardown discards what is pending before the
// CLEAR — nothing buffered can recreate an object behind it — and Close
// after it sends nothing.
func TestClearAllDropsDeferred(t *testing.T) {
	cl := startCluster(t, 2)
	fx, err := federated.Distribute(cl.Coord, randMat(15, 10, 2), cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.Unary(matrix.UAbs); err != nil {
		t.Fatal(err)
	}
	if err := cl.Coord.ClearAll(); err != nil {
		t.Fatal(err)
	}
	for i, addr := range cl.Addrs {
		if n := cl.Coord.Pending(addr); n != 0 {
			t.Errorf("%d requests pending at %s after ClearAll", n, addr)
		}
		if n := cl.Workers[i].NumObjects(); n != 0 {
			t.Errorf("worker %d holds %d objects after ClearAll", i, n)
		}
	}
	if err := cl.Coord.Flush(); err != nil {
		t.Fatal(err)
	}
	wantNoObjects(t, cl, "after a flush behind ClearAll")
}

// replyDropper is a TCP proxy in front of one worker that can lose a reply:
// once armed, it forwards the next request as usual — the worker executes
// it — and cuts the connection instead of delivering the answer.
type replyDropper struct {
	ln      net.Listener
	backend string
	armed   atomic.Bool
	dropped atomic.Int32
}

func newReplyDropper(t *testing.T, backend string) *replyDropper {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &replyDropper{ln: ln, backend: backend}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			go p.serve(down)
		}
	}()
	return p
}

func (p *replyDropper) serve(down net.Conn) {
	up, err := net.Dial("tcp", p.backend)
	if err != nil {
		down.Close()
		return
	}
	go func() {
		_, _ = io.Copy(up, down)
		up.Close()
	}()
	buf := make([]byte, 64<<10)
	for {
		n, err := up.Read(buf)
		if n > 0 && p.armed.CompareAndSwap(true, false) {
			p.dropped.Add(1)
			break
		}
		if n > 0 {
			if _, werr := down.Write(buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	down.Close()
	up.Close()
}

// TestDeferredBatchSurvivesLostReply: a window that consumes an object
// delivered by an earlier batch and frees it — [b = a*2; rmvar a; GET b] —
// is retried after the worker executed it and the reply got lost. The
// retry must not find a gone: deferred dispatch recovers exactly where
// one-op-per-batch dispatch does.
func TestDeferredBatchSurvivesLostReply(t *testing.T) {
	cl := startCluster(t, 1)
	proxy := newReplyDropper(t, cl.Addrs[0])
	x := randMat(31, 12, 3)
	want := x.Unary(matrix.UAbs).Scale(2)
	for _, eager := range []bool{true, false} {
		coord := federated.NewTestSession(t, fedrpc.Options{}, federated.Policy{Attempts: 4, Backoff: time.Millisecond})
		coord.SetFlushEveryOp(eager)
		fx, err := federated.Distribute(coord, x, []string{proxy.ln.Addr().String()}, federated.RowPartitioned, privacy.Public)
		if err != nil {
			t.Fatal(err)
		}
		a, err := fx.Unary(matrix.UAbs)
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.Flush(); err != nil { // a is delivered by an earlier batch
			t.Fatal(err)
		}
		before := proxy.dropped.Load()
		proxy.armed.Store(true)
		b, err := a.BinaryScalar(matrix.OpMul, 2, false)
		if err != nil {
			t.Fatalf("eager=%v: %v", eager, err)
		}
		if err := a.Free(); err != nil {
			t.Fatalf("eager=%v: free: %v", eager, err)
		}
		got, err := b.Consolidate()
		if err != nil {
			t.Fatalf("eager=%v: the retry after a lost reply failed: %v", eager, err)
		}
		if proxy.dropped.Load() != before+1 {
			t.Fatalf("eager=%v: no reply was dropped", eager)
		}
		if !got.EqualApprox(want, 0) {
			t.Fatalf("eager=%v: wrong result after the retry", eager)
		}
		if err := federated.Free(fx, b); err != nil {
			t.Fatal(err)
		}
		if err := coord.Flush(); err != nil {
			t.Fatal(err)
		}
		wantNoObjects(t, cl, fmt.Sprintf("after the run (eager=%v)", eager))
		coord.Close()
	}
}

// table1Reads queues, on the inputs of table1Script, every operation of that
// script that returns a value at the coordinator, and returns the pending
// values by the names table1Script records them under. The wsloss chain's deferred intermediates are freed behind its read.
func table1Reads(t *testing.T, cl *fedtest.Cluster) map[string]*federated.Value {
	c := cl.Coord
	pos := func(seed int64, r, k int) *matrix.Dense {
		return randMat(seed, r, k).Apply(math.Abs).AddScalar(0.5)
	}
	xp, other := pos(100, 24, 6), pos(103, 24, 6)
	dist := func(x *matrix.Dense, s federated.Scheme) *federated.Matrix {
		m, err := federated.Distribute(c, x, cl.Addrs, s, privacy.Public)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	fx, fo := dist(xp, federated.RowPartitioned), dist(other, federated.RowPartitioned)
	cx := dist(xp, federated.ColPartitioned)
	v, b, w := randMat(101, 6, 2), randMat(102, 24, 2), pos(106, 24, 1)
	fw, fw3 := dist(w, federated.RowPartitioned), dist(pos(109, 24, 3), federated.RowPartitioned)

	reads := map[string]*federated.Value{
		"tmm":                  fx.QueueTMatVec(b),
		"tsmm":                 fx.QueueTSMM(),
		"mmchain":              fx.QueueMMChain(v.SliceCols(0, 1), nil),
		"mmchain weighted":     fx.QueueMMChain(v.SliceCols(0, 1), fw),
		"mmchain weighted k=3": fx.QueueMMChain(randMat(108, 6, 3), fw3),
		"aligned tmm":          fo.QueueAlignedTMM(fx),
		"colpart mm":           cx.QueueMatVec(v),
		"colpart tmm":          cx.QueueTMatVec(b),
		"colpart rowAgg":       cx.QueueRowAgg(matrix.AggSum),
	}
	for _, op := range []matrix.AggOp{matrix.AggSum, matrix.AggMin, matrix.AggMax,
		matrix.AggMean, matrix.AggVar, matrix.AggSD} {
		reads["agg "+op.String()] = fx.QueueAggFull(op)
		reads["colAgg "+op.String()] = fx.QueueColAgg(op)
	}
	uv := randMat(104, 24, 2).MatMul(randMat(105, 6, 2).Transpose())
	fuv, err := fx.BinaryLocal(matrix.OpSub, uv, false)
	if err != nil {
		t.Fatal(err)
	}
	sq, err := fuv.Binary(matrix.OpMul, fuv)
	if err != nil {
		t.Fatal(err)
	}
	reads["wsloss chain"] = sq.QueueAggFull(matrix.AggSum)
	if err := federated.Free(fuv, sq); err != nil {
		t.Fatal(err)
	}
	return reads
}

// TestFetchGroupEqualsOneByOneTable1Dispatch: every read of the Table 1
// script, forced as one fetch group, is bitwise what it is forced one by one,
// costs one call per worker, and leaves no temporary at any worker.
func TestFetchGroupEqualsOneByOneTable1Dispatch(t *testing.T) {
	reg := obs.New()
	cl, err := fedtest.Start(fedtest.Config{Workers: 3, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	oneByOne := table1Script(t, cl)
	if err := cl.Coord.ClearAll(); err != nil {
		t.Fatal(err)
	}
	wantNoObjects(t, cl, "after ClearAll")

	reads := table1Reads(t, cl)
	inputs := make([]int, len(cl.Workers))
	for i, w := range cl.Workers {
		inputs[i] = w.NumObjects()
	}
	group := make([]*federated.Value, 0, len(reads))
	for _, v := range reads {
		group = append(group, v)
	}
	before := reg.Snapshot()
	if err := federated.Fetch(group...); err != nil {
		t.Fatal(err)
	}
	if n, want := reg.Snapshot().Diff(before).Counters["rpc.client.calls"], int64(len(cl.Workers)); n != want {
		t.Errorf("a group of %d reads cost %d calls, want %d (one per worker)", len(group), n, want)
	}
	fetched := results{}
	for name, v := range reads {
		d, err := v.Get()
		fetched.local(t, name, d, err)
	}
	one := results{}
	for name := range reads {
		one[name] = oneByOne[name]
	}
	wantSameBits(t, one, fetched)
	for i, w := range cl.Workers {
		if n := w.NumObjects(); n != inputs[i] {
			t.Errorf("worker %d holds %d objects after the group, %d inputs", i, n, inputs[i])
		}
	}
	if err := cl.Coord.ClearAll(); err != nil {
		t.Fatal(err)
	}
	wantNoObjects(t, cl, "after ClearAll")
}

// TestFetchUnforcedReadDispatch: a read nobody forces is delivered by the
// next exchange that reaches its workers, for free, and leaks nothing; one
// that teardown drops unsent fails instead of waiting.
func TestFetchUnforcedReadDispatch(t *testing.T) {
	reg := obs.New()
	cl, err := fedtest.Start(fedtest.Config{Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	x := randMat(41, 30, 4)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fx.AggFull(matrix.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	sum := fx.QueueAggFull(matrix.AggSum)
	if _, _, err := fx.ColAgg(matrix.AggMax); err != nil { // an unrelated read carries it
		t.Fatal(err)
	}
	before := reg.Snapshot()
	got, err := sum.Get()
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Diff(before).Counters["rpc.client.calls"]; n != 0 {
		t.Errorf("a read already carried cost %d calls to get", n)
	}
	if math.Float64bits(got.At(0, 0)) != math.Float64bits(want) {
		t.Errorf("carried read = %v, forced alone %v", got.At(0, 0), want)
	}
	for i, w := range cl.Workers {
		if n := w.NumObjects(); n != 1 {
			t.Errorf("worker %d holds %d objects, want only its input", i, n)
		}
	}

	dropped := fx.QueueTSMM()
	if err := cl.Coord.ClearAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := dropped.Get(); err == nil {
		t.Fatal("a read dropped by ClearAll delivered a value")
	}
	wantNoObjects(t, cl, "after ClearAll")
}

// TestFetchPendingReadSurvivesFailedCarrierDispatch is K-Means' init under
// PrivateAggregation: sum(X^2) is queued at every worker, then a row sample
// at one worker is refused. The refused call carried that worker's share of
// the sum, which must still be delivered, so the sum later costs only the
// other worker's call.
func TestFetchPendingReadSurvivesFailedCarrierDispatch(t *testing.T) {
	reg := obs.New()
	cl, err := fedtest.Start(fedtest.Config{Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	x := randMat(42, 20, 3)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.PrivateAggregation)
	if err != nil {
		t.Fatal(err)
	}
	xx, err := fx.Binary(matrix.OpMul, fx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := xx.AggFull(matrix.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	xsq := xx.QueueAggFull(matrix.AggSum)
	row, err := fx.Slice(2, 3, 0, 3) // at the first worker only
	if err != nil {
		t.Fatal(err)
	}
	if _, err := row.Consolidate(); err == nil || !strings.Contains(err.Error(), "privacy") {
		t.Fatalf("the row sample was not refused: %v", err)
	}
	before := reg.Snapshot()
	got, err := xsq.Get()
	if err != nil {
		t.Fatalf("the read that rode with the refused call: %v", err)
	}
	if n := reg.Snapshot().Diff(before).Counters["rpc.client.calls"]; n != 1 {
		t.Errorf("the rest of the read cost %d calls, want 1 (the worker the refused call did not reach)", n)
	}
	if math.Float64bits(got.At(0, 0)) != math.Float64bits(want) {
		t.Errorf("sum(X^2) = %v, forced alone %v", got.At(0, 0), want)
	}
	if err := federated.Free(fx, xx, row); err != nil {
		t.Fatal(err)
	}
	if err := cl.Coord.Flush(); err != nil {
		t.Fatal(err)
	}
	wantNoObjects(t, cl, "after freeing everything")
}

// TestFetchReportsFirstFailedReadDispatch: a group with two failing reads
// fails with the first in program order — here the one whose failure is at
// the later worker — typed; every value keeps its own outcome.
func TestFetchReportsFirstFailedReadDispatch(t *testing.T) {
	cl := startCluster(t, 2)
	x := randMat(43, 20, 3)
	pub, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	priv, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Private)
	if err != nil {
		t.Fatal(err)
	}
	// Public rows at the first worker, private ones at the second: only
	// the second refuses the sum.
	mixed := pub.Map()
	mixed.Partitions[1] = priv.Map().Partitions[1]
	half, err := federated.FromMap(cl.Coord, mixed)
	if err != nil {
		t.Fatal(err)
	}
	dangling := pub.Map()
	dangling.Partitions[0].DataID = 999999
	ghost, err := federated.FromMap(cl.Coord, dangling)
	if err != nil {
		t.Fatal(err)
	}

	ok := pub.QueueAggFull(matrix.AggMax)
	refused := half.QueueAggFull(matrix.AggSum)
	missing := ghost.QueueColAgg(matrix.AggSum)
	err = federated.Fetch(missing, ok, refused)
	var re *federated.ReadError
	if !errors.As(err, &re) || re.Op != "agg sum" || !strings.Contains(err.Error(), cl.Addrs[1]) || !strings.Contains(err.Error(), "privacy") {
		t.Fatalf("group error = %v, want the refused sum at %s as a *ReadError", err, cl.Addrs[1])
	}
	if got, err := ok.Get(); err != nil || got.At(0, 0) != x.Max() {
		t.Errorf("the healthy read of the group: %v, %v", got, err)
	}
	if _, err := missing.Get(); !errors.As(err, &re) || re.Op != "colAgg sum" || !strings.Contains(err.Error(), cl.Addrs[0]) {
		t.Errorf("the second failed read: %v", err)
	}
	if err := federated.Free(pub, priv); err != nil {
		t.Fatal(err)
	}
	if err := cl.Coord.Flush(); err != nil {
		t.Fatal(err)
	}
	wantNoObjects(t, cl, "after freeing the inputs")
}
