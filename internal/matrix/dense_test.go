package matrix

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewDenseAndAccessors(t *testing.T) {
	t.Parallel()
	m := NewDense(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 || m.Size() != 6 {
		t.Fatalf("got %dx%d size %d", m.Rows(), m.Cols(), m.Size())
	}
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2)=%g", m.At(1, 2))
	}
	if m.Row(1)[2] != 7 {
		t.Fatalf("Row aliasing broken")
	}
}

func TestNewDenseDataLengthCheck(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad data length")
		}
	}()
	NewDenseData(2, 2, []float64{1, 2, 3})
}

func TestFromRowsRaggedPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestCloneIsDeep(t *testing.T) {
	t.Parallel()
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestIdentityAndFill(t *testing.T) {
	t.Parallel()
	id := Identity(3)
	if id.Trace() != 3 || id.Sum() != 3 {
		t.Fatalf("identity trace=%g sum=%g", id.Trace(), id.Sum())
	}
	f := Fill(2, 2, 2.5)
	if f.Sum() != 10 {
		t.Fatalf("fill sum=%g", f.Sum())
	}
}

func TestRandDeterministic(t *testing.T) {
	t.Parallel()
	a := Rand(rand.New(rand.NewSource(7)), 4, 4, 0, 1)
	b := Rand(rand.New(rand.NewSource(7)), 4, 4, 0, 1)
	if !a.EqualApprox(b, 0) {
		t.Fatal("Rand not deterministic for equal seeds")
	}
	for _, v := range a.Data() {
		if v < 0 || v >= 1 {
			t.Fatalf("value %g out of [0,1)", v)
		}
	}
}

func TestEqualApprox(t *testing.T) {
	t.Parallel()
	a := FromRows([][]float64{{1, math.NaN()}})
	b := FromRows([][]float64{{1.0000001, math.NaN()}})
	if !a.EqualApprox(b, 1e-5) {
		t.Fatal("NaN==NaN tolerance compare failed")
	}
	if a.EqualApprox(NewDense(2, 1), 1) {
		t.Fatal("shape mismatch must not compare equal")
	}
}

func TestSparsity(t *testing.T) {
	t.Parallel()
	m := FromRows([][]float64{{0, 1}, {0, 2}})
	if got := m.Sparsity(); got != 0.5 {
		t.Fatalf("sparsity=%g want 0.5", got)
	}
	if NewDense(0, 0).Sparsity() != 0 {
		t.Fatal("empty matrix sparsity")
	}
}

func TestStringForms(t *testing.T) {
	t.Parallel()
	small := FromRows([][]float64{{1, 2}})
	if small.String() != "Dense(1x2)[1 2]" {
		t.Fatalf("small string %q", small.String())
	}
	big := NewDense(100, 100)
	if big.String() != "Dense(100x100)" {
		t.Fatalf("big string %q", big.String())
	}
}
