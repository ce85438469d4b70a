package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// sameBits reports the first cell where got and want differ in shape or in
// any bit, or "" when they are bitwise equal.
func sameBits(got, want *Dense) string {
	if got.rows != want.rows || got.cols != want.cols {
		return fmt.Sprintf("shape %dx%d, want %dx%d", got.rows, got.cols, want.rows, want.cols)
	}
	for i, g := range got.data {
		if math.Float64bits(g) != math.Float64bits(want.data[i]) {
			return fmt.Sprintf("cell (%d,%d) is %v, want %v", i/got.cols, i%got.cols, g, want.data[i])
		}
	}
	return ""
}

// poisonedPair draws A (n x k) with scattered zero cells and all-zero rows,
// and B (n x p) that carries NaN, +Inf and -Inf exactly in A's all-zero
// rows: a kernel that multiplies instead of skipping A's zeros turns whole
// output rows into NaN.
func poisonedPair(rng *rand.Rand, n, k, p int) (a, b *Dense) {
	a = Randn(rng, n, k, 0, 1)
	b = Randn(rng, n, p, 0, 1)
	poison := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for r := 0; r < n; r++ {
		for i := 0; i < k; i++ {
			if (r*7+i)%5 == 0 {
				a.data[r*k+i] = 0
			}
		}
		if r%11 == 3 {
			for i := 0; i < k; i++ {
				a.data[r*k+i] = 0
			}
			for j := 0; j < p; j++ {
				b.data[r*p+j] = poison[(r+j)%len(poison)]
			}
		}
	}
	return a, b
}

// TestTMatMulBitwiseEqualsTranspose: t(A) %*% B without a transpose is bit
// for bit the transposing form, for every shape of the grid and at every
// parallelism, with A's zero cells skipped where B is NaN or infinite.
func TestTMatMulBitwiseEqualsTranspose(t *testing.T) {
	defer SetParallelism(SetParallelism(1))
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{0, 1, 257, 20000} {
		for _, k := range []int{1, 3, 8, 100} {
			for _, p := range []int{1, 2, 4, 7, 64} {
				a, b := poisonedPair(rng, n, k, p)
				SetParallelism(1)
				want := a.Transpose().MatMul(b)
				for _, v := range want.data {
					if math.IsNaN(v) {
						t.Fatalf("n=%d k=%d p=%d: oracle has NaN; the poison reached a nonzero", n, k, p)
					}
				}
				for _, threads := range []int{1, 2, 4, 64} {
					SetParallelism(threads)
					if d := sameBits(a.TMatMul(b), want); d != "" {
						t.Fatalf("n=%d k=%d p=%d threads=%d: %s", n, k, p, threads, d)
					}
				}
			}
		}
	}
}

// TestTMatMulShapeMismatch: the panic names the product as written, t(A)
// with A's own shape, not the shapes of a transpose that is never built.
func TestTMatMulShapeMismatch(t *testing.T) {
	t.Parallel()
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "t(3x2) %*% 4x5") {
			t.Fatalf("panic %q does not name t(3x2) %%*%% 4x5", msg)
		}
	}()
	NewDense(3, 2).TMatMul(NewDense(4, 5))
}

// TestMatVecBitwiseEqualsBlocked: a one-column MatMul, one dot per row, is
// bit for bit the blocked loop it replaced (kept here as matMulBand), with
// zero cells of X skipped where v is NaN or infinite.
func TestMatVecBitwiseEqualsBlocked(t *testing.T) {
	defer SetParallelism(SetParallelism(1))
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{0, 1, 257, 20000} {
		for _, k := range []int{1, 3, 64, 65, 100, 300} {
			// Transposed, the poisoned pair gives X with all-zero columns
			// exactly where v is NaN or infinite.
			xt, vt := poisonedPair(rng, k, n, 1)
			x, v := xt.Transpose(), vt
			want := NewDense(n, 1)
			matMulBand(x, v, want, 0, n)
			for _, threads := range []int{1, 2, 4, 64} {
				SetParallelism(threads)
				if d := sameBits(x.MatMul(v), want); d != "" {
					t.Fatalf("n=%d k=%d threads=%d: %s", n, k, threads, d)
				}
			}
		}
	}
}

// TestColPartialAggsBitwise: each row of the one-pass partials is bit for
// bit the ColAgg of its op, over NaN, ±Inf, all-zero rows and a matrix with
// no rows at all.
func TestColPartialAggsBitwise(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(27))
	x := Randn(rng, 300, 9, 0, 3)
	for j := 0; j < x.cols; j++ {
		x.Set(10, j, 0)
	}
	x.Set(3, 1, math.NaN())
	x.Set(4, 2, math.Inf(1))
	x.Set(5, 2, math.Inf(-1))
	x.Set(6, 3, math.Inf(-1))
	x.Set(7, 4, math.NaN())
	x.Set(8, 4, math.Inf(1))
	for _, m := range []*Dense{x, NewDense(0, 9), NewDense(5, 4), Fill(2, 3, math.Copysign(0, -1))} {
		got := m.ColPartialAggs()
		want := RBind(m.ColAgg(AggSum), m.ColAgg(AggSumSq), m.ColAgg(AggMin), m.ColAgg(AggMax))
		if d := sameBits(got, want); d != "" {
			t.Fatalf("%dx%d: %s", m.rows, m.cols, d)
		}
	}
}
