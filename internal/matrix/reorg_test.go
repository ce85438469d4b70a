package matrix

import (
	"math"
	"math/rand"
	"testing"
)

func TestSliceAndSetSlice(t *testing.T) {
	t.Parallel()
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := m.Slice(1, 3, 0, 2)
	if !s.EqualApprox(FromRows([][]float64{{4, 5}, {7, 8}}), 0) {
		t.Fatalf("slice: %v", s)
	}
	m2 := m.Clone()
	m2.SetSlice(0, 1, FromRows([][]float64{{10, 11}}))
	if m2.At(0, 1) != 10 || m2.At(0, 2) != 11 || m2.At(0, 0) != 1 {
		t.Fatal("SetSlice")
	}
}

// TestCopiesAreIndependent: Clone, Slice over whole rows (the contiguous
// copy), SliceRows and a column Slice each return the cells asked for, and
// overwriting every cell of a result leaves its source unchanged.
func TestCopiesAreIndependent(t *testing.T) {
	t.Parallel()
	m := Randn(rand.New(rand.NewSource(3)), 7, 5, 0, 1)
	orig := m.Clone()
	for _, c := range []struct {
		name string
		got  *Dense
		want func(i, j int) float64
	}{
		{"Clone", m.Clone(), m.At},
		{"Slice whole rows", m.Slice(2, 6, 0, 5), func(i, j int) float64 { return m.At(i+2, j) }},
		{"SliceRows", m.SliceRows(0, 7), m.At},
		{"SliceRows empty", m.SliceRows(4, 4), m.At},
		{"Slice columns", m.Slice(1, 4, 1, 3), func(i, j int) float64 { return m.At(i+1, j+1) }},
	} {
		for i := 0; i < c.got.rows; i++ {
			for j := 0; j < c.got.cols; j++ {
				if c.got.At(i, j) != c.want(i, j) {
					t.Fatalf("%s: cell (%d,%d) is %v, want %v", c.name, i, j, c.got.At(i, j), c.want(i, j))
				}
			}
		}
		for i := range c.got.data {
			c.got.data[i] = math.NaN()
		}
		if d := sameBits(m, orig); d != "" {
			t.Fatalf("writing the %s result changed its source: %s", c.name, d)
		}
	}
}

func TestSliceOutOfRangePanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(2, 2).Slice(0, 3, 0, 1)
}

func TestRBindCBind(t *testing.T) {
	t.Parallel()
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{3, 4}, {5, 6}})
	r := RBind(a, b)
	if !r.EqualApprox(FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}}), 0) {
		t.Fatal("rbind")
	}
	c := CBind(a, FromRows([][]float64{{9}}))
	if !c.EqualApprox(FromRows([][]float64{{1, 2, 9}}), 0) {
		t.Fatal("cbind")
	}
}

func TestRemoveEmpty(t *testing.T) {
	t.Parallel()
	m := FromRows([][]float64{{0, 0}, {1, 0}, {0, 0}, {0, 2}})
	r, idx := m.RemoveEmptyRows()
	if r.Rows() != 2 || idx[0] != 1 || idx[1] != 3 {
		t.Fatalf("removeEmpty rows: %v %v", r, idx)
	}
	m2 := FromRows([][]float64{{0, 1, 0}, {0, 2, 0}})
	c, cidx := m2.RemoveEmptyCols()
	if c.Cols() != 1 || cidx[0] != 1 || c.At(1, 0) != 2 {
		t.Fatalf("removeEmpty cols: %v %v", c, cidx)
	}
}

func TestReplace(t *testing.T) {
	t.Parallel()
	m := FromRows([][]float64{{1, math.NaN(), 1}})
	if got := m.Replace(1, 9); got.At(0, 0) != 9 || got.At(0, 2) != 9 {
		t.Fatal("replace value")
	}
	got := m.Replace(math.NaN(), 0)
	if got.At(0, 1) != 0 || got.At(0, 0) != 1 {
		t.Fatal("replace NaN")
	}
}

func TestReshape(t *testing.T) {
	t.Parallel()
	m := FromRows([][]float64{{1, 2, 3, 4}})
	r := m.Reshape(2, 2)
	if !r.EqualApprox(FromRows([][]float64{{1, 2}, {3, 4}}), 0) {
		t.Fatal("reshape")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad reshape")
		}
	}()
	m.Reshape(3, 2)
}

func TestDiag(t *testing.T) {
	t.Parallel()
	v := ColVector([]float64{1, 2})
	d := v.Diag()
	if !d.EqualApprox(FromRows([][]float64{{1, 0}, {0, 2}}), 0) {
		t.Fatal("vector->diag")
	}
	back := d.Diag()
	if !back.EqualApprox(v, 0) {
		t.Fatal("diag->vector")
	}
}

func TestSelectRows(t *testing.T) {
	t.Parallel()
	m := FromRows([][]float64{{1}, {2}, {3}})
	s := m.SelectRows([]int{2, 0, 2})
	if !s.EqualApprox(FromRows([][]float64{{3}, {1}, {3}}), 0) {
		t.Fatal("selectRows")
	}
}

func TestIfElseAndFusedTernary(t *testing.T) {
	t.Parallel()
	cond := FromRows([][]float64{{1, 0}})
	a := FromRows([][]float64{{10, 20}})
	b := FromRows([][]float64{{30, 40}})
	if !cond.IfElse(a, b).EqualApprox(RowVector([]float64{10, 40}), 0) {
		t.Fatal("ifelse")
	}
	sc := Fill(1, 1, 7)
	if !cond.IfElse(sc, b).EqualApprox(RowVector([]float64{7, 40}), 0) {
		t.Fatal("ifelse scalar arm")
	}
	if !a.PlusMult(2, b).EqualApprox(RowVector([]float64{70, 100}), 0) {
		t.Fatal("+*")
	}
	if !a.MinusMult(0.5, b).EqualApprox(RowVector([]float64{-5, 0}), 0) {
		t.Fatal("-*")
	}
}

func TestCTable(t *testing.T) {
	t.Parallel()
	a := ColVector([]float64{1, 2, 2, 3})
	b := ColVector([]float64{1, 1, 2, 1})
	got := CTable(a, b, 0, 0)
	want := FromRows([][]float64{{1, 0}, {1, 1}, {1, 0}})
	if !got.EqualApprox(want, 0) {
		t.Fatalf("ctable: %v", got)
	}
	capped := CTable(a, b, 2, 2)
	if capped.Rows() != 2 || capped.Cols() != 2 {
		t.Fatal("ctable cap")
	}
}

func TestQuaternaryOps(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(4))
	x := Rand(rng, 6, 5, 0.5, 2)
	u := Rand(rng, 6, 3, 0.5, 1)
	v := Rand(rng, 5, 3, 0.5, 1)
	w := Rand(rng, 6, 5, 0, 1)
	uv := u.MatMul(v.Transpose())

	wantWSL := w.Mul(x.Sub(uv)).Mul(x.Sub(uv)).Sum()
	if got := WSLoss(x, u, v, w); math.Abs(got-wantWSL) > 1e-9 {
		t.Fatalf("wsloss %g want %g", got, wantWSL)
	}
	if got := WSLoss(x, u, v, nil); math.Abs(got-x.Sub(uv).Mul(x.Sub(uv)).Sum()) > 1e-9 {
		t.Fatal("wsloss unweighted")
	}

	wantWS := w.Mul(uv.Sigmoid())
	if got := WSigmoid(w, u, v); !got.EqualApprox(wantWS, 1e-10) {
		t.Fatal("wsigmoid")
	}

	wantWD := u.Transpose().MatMul(w.Div(uv)).Transpose()
	if got := WDivMM(w, u, v); !got.EqualApprox(wantWD, 1e-9) {
		t.Fatal("wdivmm")
	}

	wantWC := x.Mul(uv.Unary(ULog)).Sum()
	if got := WCEMM(x, u, v); math.Abs(got-wantWC) > 1e-9 {
		t.Fatalf("wcemm %g want %g", got, wantWC)
	}
}
