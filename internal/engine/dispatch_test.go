package engine_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"exdra/internal/engine"
	"exdra/internal/fedtest"
	"exdra/internal/matrix"
	"exdra/internal/obs"
	"exdra/internal/privacy"
)

func TestAggAndColRowAggDispatch(t *testing.T) {
	cl := cluster(t)
	rng := rand.New(rand.NewSource(5))
	x := matrix.Rand(rng, 18, 4, 0.5, 2)
	fx := fed(t, cl, x, privacy.Public)

	for _, op := range []matrix.AggOp{matrix.AggSum, matrix.AggMin, matrix.AggMax,
		matrix.AggMean, matrix.AggVar, matrix.AggSD} {
		if math.Abs(engine.Agg(op, x)-engine.Agg(op, fx)) > 1e-9 {
			t.Errorf("agg %v dispatch", op)
		}
		lr := engine.Local(engine.RowAgg(op, x))
		fr := engine.Local(engine.RowAgg(op, fx))
		if !lr.EqualApprox(fr, 1e-9) {
			t.Errorf("rowAgg %v dispatch", op)
		}
		lc := engine.Local(engine.ColAgg(op, x))
		fc := engine.Local(engine.ColAgg(op, fx))
		if !lc.EqualApprox(fc, 1e-9) {
			t.Errorf("colAgg %v dispatch", op)
		}
	}
	if engine.Sum(fx) != engine.Agg(matrix.AggSum, fx) {
		t.Error("Sum wrapper")
	}
}

func TestKernelDispatch(t *testing.T) {
	cl := cluster(t)
	rng := rand.New(rand.NewSource(6))
	x := matrix.Randn(rng, 20, 5, 0, 1)
	v := matrix.Randn(rng, 5, 1, 0, 1)
	fx := fed(t, cl, x, privacy.Public)

	if !engine.TSMM(fx).EqualApprox(engine.TSMM(x), 1e-9) {
		t.Error("tsmm dispatch")
	}
	for _, k := range []int{1, 4} {
		vk := matrix.Randn(rng, 5, k, 0, 1)
		w := matrix.Randn(rng, 20, k, 0, 1)
		fw := fed(t, cl, w, privacy.Public)
		want := x.MMChain(vk, w)
		if !engine.MMChain(fx, vk, fw).EqualApprox(want, 1e-9) {
			t.Errorf("k=%d: mmchain dispatch, federated x and w", k)
		}
		if !engine.MMChain(x, vk, fw).EqualApprox(want, 0) {
			t.Errorf("k=%d: mmchain dispatch, local x and federated w", k)
		}
		if !engine.MMChain(fx, vk, nil).EqualApprox(x.MMChain(vk, nil), 1e-9) {
			t.Errorf("k=%d: mmchain dispatch, federated x without w", k)
		}
		// A local w beside a federated x is not a second path: it fails.
		err := func() (err error) {
			defer engine.Guard(&err)
			engine.MMChain(fx, vk, w)
			return nil
		}()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("federated 20x5 needs a federated w co-partitioned with it, have *matrix.Dense 20x%d", k)) {
			t.Errorf("k=%d: local w with federated x: %v", k, err)
		}
	}
	lt := engine.Local(engine.Transpose(x))
	ft := engine.Local(engine.Transpose(fx))
	if !lt.EqualApprox(ft, 0) {
		t.Error("transpose dispatch")
	}
	// MatMul with a federated right-hand side consolidates it (§4.2).
	fv := fed(t, cl, v, privacy.Public)
	got := engine.Local(engine.MatMul(x, fv))
	if !got.EqualApprox(x.MatMul(v), 1e-9) {
		t.Error("local x fed matmul")
	}
}

func TestConvenienceWrappers(t *testing.T) {
	a := matrix.FromRows([][]float64{{4, 9}})
	b := matrix.FromRows([][]float64{{2, 3}})
	if !engine.Add(a, b).(*matrix.Dense).EqualApprox(matrix.RowVector([]float64{6, 12}), 0) {
		t.Error("Add")
	}
	if !engine.Sub(a, b).(*matrix.Dense).EqualApprox(matrix.RowVector([]float64{2, 6}), 0) {
		t.Error("Sub")
	}
	if !engine.Mul(a, b).(*matrix.Dense).EqualApprox(matrix.RowVector([]float64{8, 27}), 0) {
		t.Error("Mul")
	}
	if !engine.Div(a, b).(*matrix.Dense).EqualApprox(matrix.RowVector([]float64{2, 3}), 0) {
		t.Error("Div")
	}
	if !engine.Scale(a, 0.5).(*matrix.Dense).EqualApprox(matrix.RowVector([]float64{2, 4.5}), 0) {
		t.Error("Scale")
	}
	if !engine.Unary(matrix.USqrt, a).(*matrix.Dense).EqualApprox(matrix.RowVector([]float64{2, 3}), 0) {
		t.Error("Unary")
	}
	if !engine.BinaryScalar(matrix.OpAdd, a, 1, false).(*matrix.Dense).EqualApprox(matrix.RowVector([]float64{5, 10}), 0) {
		t.Error("BinaryScalar")
	}
}

// badMat triggers the unknown-type failure paths.
type badMat struct{}

func (badMat) Rows() int { return 1 }
func (badMat) Cols() int { return 1 }

func TestUnknownMatTypeFails(t *testing.T) {
	funcs := map[string]func(){
		"Local":       func() { engine.Local(badMat{}) },
		"MatMul":      func() { engine.MatMul(badMat{}, matrix.Fill(1, 1, 1)) },
		"TMatMul":     func() { engine.TMatMul(badMat{}, matrix.Fill(1, 1, 1)) },
		"TSMM":        func() { engine.TSMM(badMat{}) },
		"MMChain":     func() { engine.MMChain(badMat{}, matrix.Fill(1, 1, 1), nil) },
		"Transpose":   func() { engine.Transpose(badMat{}) },
		"Binary":      func() { engine.Binary(matrix.OpAdd, badMat{}, badMat{}) },
		"Scalar":      func() { engine.BinaryScalar(matrix.OpAdd, badMat{}, 1, false) },
		"Unary":       func() { engine.Unary(matrix.UAbs, badMat{}) },
		"Softmax":     func() { engine.Softmax(badMat{}) },
		"Agg":         func() { engine.Agg(matrix.AggSum, badMat{}) },
		"RowAgg":      func() { engine.RowAgg(matrix.AggSum, badMat{}) },
		"ColAgg":      func() { engine.ColAgg(matrix.AggSum, badMat{}) },
		"RowIndexMax": func() { engine.RowIndexMax(badMat{}) },
		"Slice":       func() { engine.Slice(badMat{}, 0, 1, 0, 1) },
		"Replace":     func() { engine.Replace(badMat{}, 0, 1) },
	}
	for name, fn := range funcs {
		err := func() (err error) {
			defer engine.Guard(&err)
			fn()
			return nil
		}()
		if err == nil {
			t.Errorf("%s accepted unknown matrix type", name)
		}
	}
}

// TestFetchDispatch: handles queued on local input hold their value at once;
// on federated input one Fetch delivers them all in one call per worker,
// bitwise what the eager operations return, and a handle fetched twice or
// read after the group costs nothing more.
func TestFetchDispatch(t *testing.T) {
	reg := obs.New()
	cl, err := fedtest.Start(fedtest.Config{Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	rng := rand.New(rand.NewSource(9))
	x := matrix.Randn(rng, 20, 5, 0, 1)
	y := matrix.Randn(rng, 20, 2, 0, 1)
	fx := fed(t, cl, x, privacy.Public)
	for _, in := range []engine.Mat{x, fx} {
		sum, cols := engine.QueueAgg(matrix.AggSum, in), engine.QueueColAgg(matrix.AggSD, in)
		xty, xtx := engine.QueueTMatMul(in, y), engine.QueueTSMM(in)
		before := reg.Snapshot()
		engine.Fetch(sum, cols, xty, xtx)
		engine.Fetch(sum, xtx)
		got := []*matrix.Dense{matrix.Fill(1, 1, sum.Value()), cols.Value(), xty.Value(), xtx.Value()}
		calls := int64(0)
		if engine.IsFederated(in) {
			calls = int64(len(cl.Addrs))
		}
		if n := reg.Snapshot().Diff(before).Counters["rpc.client.calls"]; n != calls {
			t.Errorf("federated=%v: two fetches of four handles cost %d calls, want %d", engine.IsFederated(in), n, calls)
		}
		want := []*matrix.Dense{matrix.Fill(1, 1, engine.Agg(matrix.AggSum, in)),
			engine.Local(engine.ColAgg(matrix.AggSD, in)), engine.Local(engine.TMatMul(in, y)), engine.TSMM(in)}
		for i := range want {
			if !got[i].EqualApprox(want[i], 0) {
				t.Errorf("federated=%v: handle %d differs from the eager operation", engine.IsFederated(in), i)
			}
		}
	}
}
