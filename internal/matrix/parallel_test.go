package matrix

import (
	"sync"
	"testing"
)

// intMatrix fills an r x c matrix with small deterministic integer values so
// kernel results are exact regardless of floating-point summation order (and
// therefore of the thread count splitting the bands).
func intMatrix(r, c, seed int) *Dense {
	m := NewDense(r, c)
	for i := range m.data {
		m.data[i] = float64((i*7+seed*13)%9 - 4)
	}
	return m
}

// TestSmallMatrixHighParallelism pins kernel correctness when the configured
// thread count far exceeds the matrix dimensions: band computation must
// clamp to the item count, leaving no out-of-range or double-covered rows.
func TestSmallMatrixHighParallelism(t *testing.T) {
	defer SetParallelism(SetParallelism(1))
	sizes := [][2]int{{1, 1}, {2, 3}, {5, 4}, {7, 65}, {64, 64}, {129, 33}}
	for _, sz := range sizes {
		r, c := sz[0], sz[1]
		a := intMatrix(r, c, 1)
		b := intMatrix(c, r, 2)
		v := intMatrix(c, 1, 3)
		w := intMatrix(r, 1, 4)

		SetParallelism(1)
		wantMM := a.MatMul(b)
		wantTS := a.TSMM()
		wantMC := a.MMChain(v, w)
		wantT := a.Transpose()

		SetParallelism(64)
		gotMM := a.MatMul(b)
		gotTS := a.TSMM()
		gotMC := a.MMChain(v, w)
		gotT := a.Transpose()

		for name, pair := range map[string][2]*Dense{
			"matmul": {wantMM, gotMM}, "tsmm": {wantTS, gotTS},
			"mmchain": {wantMC, gotMC}, "transpose": {wantT, gotT},
		} {
			want, got := pair[0], pair[1]
			if want.rows != got.rows || want.cols != got.cols {
				t.Fatalf("%dx%d %s: shape %dx%d != %dx%d", r, c, name,
					got.rows, got.cols, want.rows, want.cols)
			}
			for i := range want.data {
				if want.data[i] != got.data[i] {
					t.Fatalf("%dx%d %s: cell %d: %g (64 threads) != %g (1 thread)",
						r, c, name, i, got.data[i], want.data[i])
				}
			}
		}
	}
}

// TestConcurrentSetParallelism is a -race regression: SetParallelism used to
// write a plain int global that every kernel reads, so reconfiguring
// parallelism while kernels run was a data race.
func TestConcurrentSetParallelism(t *testing.T) {
	defer SetParallelism(SetParallelism(0))
	a := intMatrix(64, 48, 5)
	v := intMatrix(48, 1, 6)
	stop := make(chan struct{})
	var flipper sync.WaitGroup
	flipper.Add(1)
	go func() {
		defer flipper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				SetParallelism(1 + i%8)
			}
		}
	}()
	var workers sync.WaitGroup
	for g := 0; g < 4; g++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := 0; i < 50; i++ {
				_ = a.MatMul(v)
				_ = a.MMChain(v, nil)
				_ = a.TSMM()
				_ = a.TMatMul(a)
			}
		}()
	}
	workers.Wait()
	close(stop)
	flipper.Wait()
}
