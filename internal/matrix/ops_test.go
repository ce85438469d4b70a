package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestBinarySameShape(t *testing.T) {
	t.Parallel()
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	got := a.Add(b)
	want := FromRows([][]float64{{11, 22}, {33, 44}})
	if !got.EqualApprox(want, 0) {
		t.Fatalf("add: %v", got)
	}
	if !a.Mul(b).EqualApprox(FromRows([][]float64{{10, 40}, {90, 160}}), 0) {
		t.Fatal("mul")
	}
}

func TestBinaryColBroadcast(t *testing.T) {
	t.Parallel()
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	v := ColVector([]float64{10, 100})
	got := a.Add(v)
	want := FromRows([][]float64{{11, 12}, {103, 104}})
	if !got.EqualApprox(want, 0) {
		t.Fatalf("col broadcast: %v", got)
	}
}

func TestBinaryRowBroadcast(t *testing.T) {
	t.Parallel()
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	v := RowVector([]float64{10, 100})
	got := a.Mul(v)
	want := FromRows([][]float64{{10, 200}, {30, 400}})
	if !got.EqualApprox(want, 0) {
		t.Fatalf("row broadcast: %v", got)
	}
}

func TestBinaryScalarAndSwap(t *testing.T) {
	t.Parallel()
	a := FromRows([][]float64{{1, 2}})
	if !a.BinaryScalar(OpSub, 1, false).EqualApprox(FromRows([][]float64{{0, 1}}), 0) {
		t.Fatal("m-s")
	}
	if !a.BinaryScalar(OpSub, 1, true).EqualApprox(FromRows([][]float64{{0, -1}}), 0) {
		t.Fatal("s-m")
	}
	one := Fill(1, 1, 5)
	if !a.Binary(OpAdd, one).EqualApprox(FromRows([][]float64{{6, 7}}), 0) {
		t.Fatal("1x1 scalar broadcast")
	}
}

func TestComparisonAndLogicalOps(t *testing.T) {
	t.Parallel()
	a := FromRows([][]float64{{1, 0, 2}})
	b := FromRows([][]float64{{1, 1, 1}})
	cases := []struct {
		op   BinaryOp
		want []float64
	}{
		{OpEq, []float64{1, 0, 0}},
		{OpNe, []float64{0, 1, 1}},
		{OpGt, []float64{0, 0, 1}},
		{OpGe, []float64{1, 0, 1}},
		{OpLt, []float64{0, 1, 0}},
		{OpLe, []float64{1, 1, 0}},
		{OpAnd, []float64{1, 0, 1}},
		{OpOr, []float64{1, 1, 1}},
		{OpXor, []float64{0, 1, 0}},
	}
	for _, c := range cases {
		got := a.Binary(c.op, b)
		if !got.EqualApprox(RowVector(c.want), 0) {
			t.Errorf("%v: got %v want %v", c.op, got, c.want)
		}
	}
}

func TestModIntDivPowLog(t *testing.T) {
	t.Parallel()
	a := FromRows([][]float64{{7, 8}})
	b := FromRows([][]float64{{3, 2}})
	if !a.Binary(OpMod, b).EqualApprox(RowVector([]float64{1, 0}), 0) {
		t.Fatal("mod")
	}
	if !a.Binary(OpIntDiv, b).EqualApprox(RowVector([]float64{2, 4}), 0) {
		t.Fatal("intdiv")
	}
	if !b.Binary(OpPow, b).EqualApprox(RowVector([]float64{27, 4}), 1e-12) {
		t.Fatal("pow")
	}
	l := FromRows([][]float64{{8}}).Binary(OpLog, FromRows([][]float64{{2}}))
	if math.Abs(l.At(0, 0)-3) > 1e-12 {
		t.Fatalf("log_2(8)=%g", l.At(0, 0))
	}
}

func TestIncompatibleShapesPanic(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(2, 3).Add(NewDense(3, 2))
}

func TestUnaryOps(t *testing.T) {
	t.Parallel()
	a := FromRows([][]float64{{-1.5, 4, 0}})
	if !a.Unary(UAbs).EqualApprox(RowVector([]float64{1.5, 4, 0}), 0) {
		t.Fatal("abs")
	}
	if !a.Unary(USign).EqualApprox(RowVector([]float64{-1, 1, 0}), 0) {
		t.Fatal("sign")
	}
	if !a.Unary(UNot).EqualApprox(RowVector([]float64{0, 0, 1}), 0) {
		t.Fatal("not")
	}
	if !a.Unary(UFloor).EqualApprox(RowVector([]float64{-2, 4, 0}), 0) {
		t.Fatal("floor")
	}
	if !a.Unary(UCeil).EqualApprox(RowVector([]float64{-1, 4, 0}), 0) {
		t.Fatal("ceil")
	}
	if !a.Unary(URelu).EqualApprox(RowVector([]float64{0, 4, 0}), 0) {
		t.Fatal("relu")
	}
	nan := FromRows([][]float64{{math.NaN(), 1}})
	if !nan.Unary(UIsNA).EqualApprox(RowVector([]float64{1, 0}), 0) {
		t.Fatal("isNA")
	}
	s := FromRows([][]float64{{0}}).Sigmoid()
	if math.Abs(s.At(0, 0)-0.5) > 1e-15 {
		t.Fatalf("sigmoid(0)=%g", s.At(0, 0))
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	m := Randn(rng, 5, 7, 0, 10)
	sm := m.Softmax()
	rs := sm.RowSums()
	for i := 0; i < 5; i++ {
		if math.Abs(rs.At(i, 0)-1) > 1e-12 {
			t.Fatalf("row %d sums to %g", i, rs.At(i, 0))
		}
	}
	// Softmax is shift-invariant; large inputs must not overflow.
	big := Fill(1, 3, 1e8)
	if s := big.Softmax().Sum(); math.Abs(s-1) > 1e-12 {
		t.Fatalf("softmax overflow, sum=%g", s)
	}
}

func TestAggregates(t *testing.T) {
	t.Parallel()
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if m.Sum() != 21 || m.Min() != 1 || m.Max() != 6 || m.Mean() != 3.5 {
		t.Fatalf("sum/min/max/mean: %g %g %g %g", m.Sum(), m.Min(), m.Max(), m.Mean())
	}
	if v := m.Agg(AggVar); math.Abs(v-3.5) > 1e-12 {
		t.Fatalf("var=%g", v)
	}
	if sd := m.Agg(AggSD); math.Abs(sd-math.Sqrt(3.5)) > 1e-12 {
		t.Fatalf("sd=%g", sd)
	}
	if !m.RowSums().EqualApprox(ColVector([]float64{6, 15}), 0) {
		t.Fatal("rowSums")
	}
	if !m.ColSums().EqualApprox(RowVector([]float64{5, 7, 9}), 0) {
		t.Fatal("colSums")
	}
	if !m.RowMins().EqualApprox(ColVector([]float64{1, 4}), 0) {
		t.Fatal("rowMins")
	}
	if !m.ColMaxs().EqualApprox(RowVector([]float64{4, 5, 6}), 0) {
		t.Fatal("colMaxs")
	}
	if !m.RowMeans().EqualApprox(ColVector([]float64{2, 5}), 0) {
		t.Fatal("rowMeans")
	}
	if !m.ColMeans().EqualApprox(RowVector([]float64{2.5, 3.5, 4.5}), 0) {
		t.Fatal("colMeans")
	}
}

func TestRowIndexMax(t *testing.T) {
	t.Parallel()
	m := FromRows([][]float64{{1, 9, 2}, {7, 1, 3}})
	if !m.RowIndexMax().EqualApprox(ColVector([]float64{2, 1}), 0) {
		t.Fatal("rowIndexMax")
	}
}

func TestPartialAggCombine(t *testing.T) {
	t.Parallel()
	m := FromRows([][]float64{{1, 2, 3, 4, 5, 6}})
	a := m.SliceCols(0, 2)
	b := m.SliceCols(2, 6)
	s1, q1, mn1, mx1, n1 := a.PartialAgg()
	s2, q2, mn2, mx2, n2 := b.PartialAgg()
	for _, op := range []AggOp{AggSum, AggMin, AggMax, AggMean, AggVar, AggSD} {
		got := CombinePartialAggs(op,
			[]float64{s1, s2}, []float64{q1, q2},
			[]float64{mn1, mn2}, []float64{mx1, mx2}, []int{n1, n2})
		want := m.Agg(op)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%v: combined %g want %g", op, got, want)
		}
	}
}

func TestMatMulSmall(t *testing.T) {
	t.Parallel()
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !a.MatMul(b).EqualApprox(want, 0) {
		t.Fatal("matmul")
	}
}

func TestMatMulShapePanic(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(2, 3).MatMul(NewDense(2, 3))
}

func TestMatMulAgainstNaive(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	a := Randn(rng, 33, 70, 0, 1)
	b := Randn(rng, 70, 21, 0, 1)
	got := a.MatMul(b)
	want := naiveMatMul(a, b)
	if !got.EqualApprox(want, 1e-10) {
		t.Fatal("blocked matmul differs from naive")
	}
}

func naiveMatMul(a, b *Dense) *Dense {
	out := NewDense(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			s := 0.0
			for k := 0; k < a.Cols(); k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestTSMMEqualsExplicit(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	x := Randn(rng, 57, 13, 0, 1)
	got := x.TSMM()
	want := x.Transpose().MatMul(x)
	if !got.EqualApprox(want, 1e-10) {
		t.Fatal("tsmm differs from explicit t(X) matmul X")
	}
}

func TestMMChainEqualsExplicit(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(6))
	x := Randn(rng, 41, 9, 0, 1)
	v := Randn(rng, 9, 1, 0, 1)
	w := Randn(rng, 41, 1, 0, 1)
	got := x.MMChain(v, w)
	want := x.Transpose().MatMul(w.Mul(x.MatMul(v)))
	if !got.EqualApprox(want, 1e-10) {
		t.Fatal("mmchain with weights")
	}
	got2 := x.MMChain(v, nil)
	want2 := x.Transpose().MatMul(x.MatMul(v))
	if !got2.EqualApprox(want2, 1e-10) {
		t.Fatal("mmchain without weights")
	}
}

// TestMMChainMultiColumnIsPerColumn: column c of a k-column chain is bit for
// bit the single-column chain of v[,c] and w[,c], under one thread and
// under four, with and without weights, when a column of v is all zeros
// (a converged CG class), and when zero rows of X or zero weights make
// single dots vanish.
func TestMMChainMultiColumnIsPerColumn(t *testing.T) {
	defer SetParallelism(SetParallelism(1))
	rng := rand.New(rand.NewSource(17))
	x := Randn(rng, 1000, 12, 0, 1)
	for j := 0; j < x.cols; j++ {
		x.Set(37, j, 0)
	}
	for _, threads := range []int{1, 4} {
		SetParallelism(threads)
		for _, k := range []int{1, 2, 4, 7} {
			v := Randn(rng, x.cols, k, 0, 1)
			for j := 0; j < v.rows; j++ {
				v.Set(j, k/2, 0)
			}
			wk := Randn(rng, x.rows, k, 0, 1)
			for i := 0; i < x.rows; i += 9 {
				wk.Set(i, (i/9)%k, 0)
			}
			for _, w := range []*Dense{nil, wk} {
				got := x.MMChain(v, w)
				if got.rows != x.cols || got.cols != k {
					t.Fatalf("threads=%d k=%d: result is %dx%d, want %dx%d", threads, k, got.rows, got.cols, x.cols, k)
				}
				for c := 0; c < k; c++ {
					var wc *Dense
					if w != nil {
						wc = w.SliceCols(c, c+1)
					}
					want := x.MMChain(v.SliceCols(c, c+1), wc)
					for j := 0; j < x.cols; j++ {
						if g, e := got.At(j, c), want.At(j, 0); math.Float64bits(g) != math.Float64bits(e) {
							t.Fatalf("threads=%d k=%d weighted=%v: cell (%d,%d) is %v, single-column chain gives %v",
								threads, k, w != nil, j, c, g, e)
						}
					}
				}
			}
		}
	}
}

// BenchmarkMMChain times the fused chain on one worker's lan-train
// partition (20000x100) for one and for four right-hand sides.
func BenchmarkMMChain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 20000, 100, 0, 1)
	for _, k := range []int{1, 4} {
		v := Randn(rng, x.cols, k, 0, 1)
		w := Rand(rng, x.rows, k, 0, 1)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(8 * x.Size()))
			for i := 0; i < b.N; i++ {
				_ = x.MMChain(v, w)
			}
		})
	}
}

// benchSink keeps the kernel benchmarks' results live.
var benchSink *Dense

// BenchmarkTMatMul times t(X) %*% B on the same partition for the p of a
// vector (LM's t(X)y, L2SVM's gradient), of a few clusters or classes, and
// of a wide right-hand side.
func BenchmarkTMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 20000, 100, 0, 1)
	for _, p := range []int{1, 4, 64} {
		rhs := Randn(rng, x.rows, p, 0, 1)
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.SetBytes(int64(8 * x.Size()))
			for i := 0; i < b.N; i++ {
				benchSink = x.TMatMul(rhs)
			}
		})
	}
}

// BenchmarkMatVec times X %*% v on the same partition (L2SVM's Xd).
func BenchmarkMatVec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 20000, 100, 0, 1)
	v := Randn(rng, x.cols, 1, 0, 1)
	b.SetBytes(int64(8 * x.Size()))
	for i := 0; i < b.N; i++ {
		benchSink = x.MatMul(v)
	}
}

// BenchmarkColPartialAggs times the column partials of uac_partial
// (colMeans, colSDs) on the same partition.
func BenchmarkColPartialAggs(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 20000, 100, 0, 1)
	b.SetBytes(int64(8 * x.Size()))
	for i := 0; i < b.N; i++ {
		benchSink = x.ColPartialAggs()
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(8))
	m := Randn(rng, 130, 67, 0, 1)
	if !m.Transpose().Transpose().EqualApprox(m, 0) {
		t.Fatal("double transpose is not the identity")
	}
	if m.Transpose().At(3, 5) != m.At(5, 3) {
		t.Fatal("transpose cell")
	}
}

func TestDotAndNorm(t *testing.T) {
	t.Parallel()
	a := ColVector([]float64{3, 4})
	if Dot(a, a) != 25 {
		t.Fatal("dot")
	}
	if a.Norm2() != 5 {
		t.Fatal("norm2")
	}
}

func TestInPlaceOps(t *testing.T) {
	t.Parallel()
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{10, 20}})
	a.AddInPlace(b)
	if !a.EqualApprox(RowVector([]float64{11, 22}), 0) {
		t.Fatal("AddInPlace")
	}
	a.ScaleInPlace(2)
	if !a.EqualApprox(RowVector([]float64{22, 44}), 0) {
		t.Fatal("ScaleInPlace")
	}
	a.AxpyInPlace(-1, b)
	if !a.EqualApprox(RowVector([]float64{12, 24}), 0) {
		t.Fatal("AxpyInPlace")
	}
}
