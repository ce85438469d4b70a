package engine_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"exdra/internal/engine"
	"exdra/internal/matrix"
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
