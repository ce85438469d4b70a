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

// poisonedPair draws A (n x k) with scattered zero cells, half of them -0,
// and all-zero rows, and B (n x p) that carries NaN, +Inf and -Inf exactly
// in A's all-zero rows: a kernel that multiplies instead of skipping A's
// zeros turns whole output rows into NaN.
func poisonedPair(rng *rand.Rand, n, k, p int) (a, b *Dense) {
	a = Randn(rng, n, k, 0, 1)
	b = Randn(rng, n, p, 0, 1)
	poison := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for r := 0; r < n; r++ {
		for i := 0; i < k; i++ {
			if (r*7+i)%5 == 0 {
				a.data[r*k+i] = math.Copysign(0, float64(i%2*2-1))
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
// for bit the blocked loop over the transpose (for a one-column B, the
// one-row loop it replaced), for every shape of the grid and at every
// parallelism, with A's zero cells skipped where B is NaN or infinite.
func TestTMatMulBitwiseEqualsTranspose(t *testing.T) {
	defer SetParallelism(SetParallelism(1))
	bothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(25))
		for _, n := range sweepRows {
			for _, k := range []int{1, 3, 8, 100} {
				for _, p := range []int{1, 2, 4, 7, 64} {
					a, b := poisonedPair(rng, n, k, p)
					want := blockedMatMul(a.Transpose(), b)
					if p == 1 {
						want = rowTMatVec(a, b)
					}
					for _, v := range want.data {
						if math.IsNaN(v) {
							t.Fatalf("n=%d k=%d p=%d: oracle has NaN; the poison reached a nonzero", n, k, p)
						}
					}
					for _, threads := range sweepThreads {
						SetParallelism(threads)
						if d := sameBits(a.TMatMul(b), want); d != "" {
							t.Fatalf("n=%d k=%d p=%d threads=%d: %s", n, k, p, threads, d)
						}
					}
				}
			}
		}
	})
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

// TestMatVecBitwiseEqualsBlocked: a one-column MatMul, four dots per
// sweep, is bit for bit the blocked loop it replaced, with zero cells of X
// skipped where v is NaN or infinite.
func TestMatVecBitwiseEqualsBlocked(t *testing.T) {
	defer SetParallelism(SetParallelism(1))
	bothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(26))
		for _, n := range sweepRows {
			for _, k := range []int{1, 2, 3, 5, 64, 65, 100, 300} {
				x, v := poisonedProduct(rng, n, k, 1)
				want := blockedMatMul(x, v)
				for _, threads := range sweepThreads {
					SetParallelism(threads)
					if d := sameBits(x.MatMul(v), want); d != "" {
						t.Fatalf("n=%d k=%d threads=%d: %s", n, k, threads, d)
					}
				}
			}
		}
	})
}

// TestMatMulBitwiseEqualsBlocked: the general MatMul, a two-row by
// four-column tile per sweep, is bit for bit the blocked loop it replaced
// for ragged row and column tails and at every parallelism, with zero cells
// of A skipped where B is NaN or infinite.
func TestMatMulBitwiseEqualsBlocked(t *testing.T) {
	defer SetParallelism(SetParallelism(1))
	bothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(28))
		for _, n := range sweepRows {
			for _, k := range []int{1, 2, 3, 5, 64, 100} {
				for _, p := range []int{2, 3, 4, 5, 8, 10, 64} {
					if n*k*p > sweepCells {
						continue
					}
					a, b := poisonedProduct(rng, n, k, p)
					want := blockedMatMul(a, b)
					for _, threads := range sweepThreads {
						SetParallelism(threads)
						if d := sameBits(a.MatMul(b), want); d != "" {
							t.Fatalf("n=%d k=%d p=%d threads=%d: %s", n, k, p, threads, d)
						}
					}
				}
			}
		}
	})
}

// TestTSMMBitwiseEqualsRowLoop: t(X) %*% X, four rows per pass over an
// output row, is bit for bit the one-row loop it replaced at the same
// parallelism (both sum the same per-band partials). X is cbind(A, B) of a
// poisoned pair, so a zero of A meets NaN or infinity of B in one row.
func TestTSMMBitwiseEqualsRowLoop(t *testing.T) {
	defer SetParallelism(SetParallelism(1))
	bothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		for _, n := range sweepRows {
			for _, k := range []int{1, 2, 3, 5, 8, 100} {
				if n*(k+3)*(k+3) > sweepCells {
					continue
				}
				a, b := poisonedPair(rng, n, k, 3)
				x := CBind(a, b)
				for _, threads := range sweepThreads {
					SetParallelism(threads)
					if d := sameBits(x.TSMM(), rowTSMM(x)); d != "" {
						t.Fatalf("n=%d k=%d threads=%d: %s", n, k, threads, d)
					}
				}
			}
		}
	})
}

// TestMMChainBitwiseEqualsRowLoop: the fused chain, four rows per sweep for
// one right-hand side and two rows per sweep for four, is bit for bit the
// one-row, one-column loop it replaced at the same parallelism, with and
// without weights, for k below, at and off multiples of four. Weights hold
// zeros, so whole rows' terms are skipped.
func TestMMChainBitwiseEqualsRowLoop(t *testing.T) {
	defer SetParallelism(SetParallelism(1))
	bothPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(30))
		for _, n := range sweepRows {
			for _, d := range []int{1, 3, 5, 100} {
				for _, k := range []int{1, 2, 3, 4, 5, 8, 9} {
					if n*d*k > sweepCells {
						continue
					}
					x, _ := poisonedPair(rng, n, d, 1)
					v := Randn(rng, d, k, 0, 1)
					w := Rand(rng, n, k, -1, 1)
					for i := range w.data {
						if i%7 == 2 {
							w.data[i] = 0
						}
					}
					for _, threads := range sweepThreads {
						SetParallelism(threads)
						if diff := sameBits(x.MMChain(v, w), rowMMChain(x, v, w)); diff != "" {
							t.Fatalf("n=%d d=%d k=%d threads=%d weighted: %s", n, d, k, threads, diff)
						}
						if diff := sameBits(x.MMChain(v, nil), rowMMChain(x, v, nil)); diff != "" {
							t.Fatalf("n=%d d=%d k=%d threads=%d: %s", n, d, k, threads, diff)
						}
					}
				}
			}
		}
	})
}

// bothPaths runs check as a subtest on the Go kernels and, where the CPU
// has AVX2, again on the assembly kernels.
func bothPaths(t *testing.T, check func(t *testing.T)) {
	defer func() { useAVX2 = haveAVX2 }()
	useAVX2 = false
	t.Run("go", check)
	if !haveAVX2 {
		t.Log("no AVX2 on this CPU: the assembly kernels are not checked")
		return
	}
	useAVX2 = true
	t.Run("avx2", check)
}

// The sweep grid of the bitwise kernel tests: row counts around the
// four-row groups (0, 1, 3, 4, 5) and up to a lan-train partition, and
// thread counts up to more than any test box has cores. Products above
// sweepCells multiply-adds (a lan-train partition times four columns) are
// left out to keep the race build quick.
var (
	sweepRows    = []int{0, 1, 3, 4, 5, 257, 20000}
	sweepThreads = []int{1, 2, 4, 64}
)

const sweepCells = 20000 * 100 * 4

// poisonedProduct draws A (n x k) and B (k x p) for A %*% B: A has -0 and
// +0 cells, and all-zero columns exactly where B's rows hold NaN and ±Inf.
func poisonedProduct(rng *rand.Rand, n, k, p int) (a, b *Dense) {
	at, b := poisonedPair(rng, k, n, p)
	return at.Transpose(), b
}

// The loops the kernels replaced, kept as bitwise oracles. Each updates one
// row, or one output row, per sweep.

// blockedMatMul is m %*% b by the i-k-j loop blocked 64 deep over k.
func blockedMatMul(m, b *Dense) *Dense {
	const blockSize = 64
	k, p := m.cols, b.cols
	out := NewDense(m.rows, p)
	for kb := 0; kb < k; kb += blockSize {
		kEnd := min(kb+blockSize, k)
		for i := 0; i < m.rows; i++ {
			arow := m.data[i*k : (i+1)*k]
			orow := out.data[i*p : (i+1)*p]
			for kk := kb; kk < kEnd; kk++ {
				a := arow[kk]
				if a == 0 {
					continue
				}
				for j, bv := range b.data[kk*p : (kk+1)*p] {
					orow[j] += a * bv
				}
			}
		}
	}
	return out
}

// rowTMatVec is t(m) %*% y for a one-column y, one row of m per sweep.
func rowTMatVec(m, y *Dense) *Dense {
	k := m.cols
	out := NewDense(k, 1)
	for r, bv := range y.data {
		for i, a := range m.data[r*k : (r+1)*k] {
			if a != 0 {
				out.data[i] += a * bv
			}
		}
	}
	return out
}

// rowTSMM is TSMM one row of m per sweep, over the same row bands and
// partials as the kernel at the current parallelism.
func rowTSMM(m *Dense) *Dense {
	k, n := m.rows, m.cols
	bandSum := func(rb, re int) *Dense {
		out := NewDense(n, n)
		for r := rb; r < re; r++ {
			row := m.Row(r)
			for i, a := range row {
				if a == 0 {
					continue
				}
				orow := out.data[i*n : (i+1)*n]
				for j := i; j < n; j++ {
					orow[j] += a * row[j]
				}
			}
		}
		return out
	}
	var out *Dense
	threads := threadsFor(k)
	if threads <= 1 || k*n*n < parallelThreshold {
		out = bandSum(0, k)
	} else {
		out = NewDense(n, n)
		chunk := (k + threads - 1) / threads
		for t := 0; t < threads; t++ {
			if rb, re := band(t, chunk, k); rb < re {
				out.AddInPlace(bandSum(rb, re))
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out.data[j*n+i] = out.data[i*n+j]
		}
	}
	return out
}

// rowMMChain is MMChain one row of m and one right-hand side per sweep,
// over the same row bands and partials as the kernel at the current
// parallelism.
func rowMMChain(m, v, w *Dense) *Dense {
	n, d, k := m.rows, m.cols, v.cols
	threads := threadsFor(n)
	chunk := (n + threads - 1) / threads
	out := NewDense(d, k)
	for t := 0; t < threads; t++ {
		rb, re := band(t, chunk, n)
		if rb >= re {
			continue
		}
		p := NewDense(d, k)
		for i := rb; i < re; i++ {
			row := m.Row(i)
			for c := 0; c < k; c++ {
				s := 0.0
				for j, a := range row {
					s += a * v.data[j*k+c]
				}
				if w != nil {
					s *= w.data[i*k+c]
				}
				if s == 0 {
					continue
				}
				for j, a := range row {
					p.data[j*k+c] += a * s
				}
			}
		}
		for i, x := range p.data {
			out.data[i] += x
		}
	}
	return out
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
		got := m.ColPartialAggs(AllStats)
		want := RBind(m.ColAgg(AggSum), m.ColAgg(AggSumSq), m.ColAgg(AggMin), m.ColAgg(AggMax))
		if d := sameBits(got, want); d != "" {
			t.Fatalf("%dx%d: %s", m.rows, m.cols, d)
		}
	}
}
