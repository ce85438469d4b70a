package algo_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"exdra/internal/algo"
	"exdra/internal/data"
	"exdra/internal/engine"
	"exdra/internal/federated"
	"exdra/internal/matrix"
	"exdra/internal/privacy"
)

// mlogregOracle is MLogReg with one CG loop per class, one class after the
// other, and the Hessian weights q_c computed at the coordinator; place puts
// q_c where engine.MMChain takes it for x. It returns the weights and the
// CG iterations summed over classes.
func mlogregOracle(x engine.Mat, y *matrix.Dense, k int, cfg algo.MLogRegConfig, place func(*matrix.Dense) engine.Mat) (*matrix.Dense, int) {
	n, d := x.Rows(), x.Cols()
	w, yOne := matrix.NewDense(d, k), matrix.NewDense(n, k)
	for i := 0; i < n; i++ {
		yOne.Set(i, int(y.At(i, 0))-1, 1)
	}
	innerTotal := 0
	for outer := 0; outer < cfg.MaxOuterIter; outer++ {
		xw := engine.MatMul(x, w)
		sm := engine.Softmax(xw)
		p := engine.Local(sm)
		engine.Free(xw, sm)
		g := engine.Local(engine.TMatMul(x, p.Sub(yOne)))
		g.AxpyInPlace(cfg.Lambda, w)
		if g.Norm2() < cfg.Tolerance {
			break
		}
		for c := 0; c < k; c++ {
			q := matrix.NewDense(n, 1)
			for i := 0; i < n; i++ {
				pc := p.At(i, c)
				q.Set(i, 0, float64(pc*(1-pc))+1e-8) // two roundings, as at the workers
			}
			qc := place(q)
			dir, r := matrix.NewDense(d, 1), g.SliceCols(c, c+1).Neg()
			pv, rs := r.Clone(), matrix.Dot(r, r)
			for inner := 0; inner < cfg.MaxInnerIter && rs > 1e-16; inner++ {
				hv := engine.MMChain(x, pv, qc)
				hv.AxpyInPlace(cfg.Lambda, pv)
				alpha := rs / matrix.Dot(pv, hv)
				dir.AxpyInPlace(alpha, pv)
				r.AxpyInPlace(-alpha, hv)
				rsNew := matrix.Dot(r, r)
				beta := rsNew / rs
				for i, rv := range r.Data() {
					pv.Data()[i] = rv + beta*pv.Data()[i]
				}
				rs = rsNew
				innerTotal++
			}
			engine.Free(qc)
			for i := 0; i < d; i++ {
				w.Set(i, c, w.At(i, c)+dir.At(i, 0))
			}
		}
	}
	return w, innerTotal
}

func wantBitwise(t *testing.T, name string, got, want *matrix.Dense) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: weights are %dx%d, oracle %dx%d", name, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i, v := range want.Data() {
		if math.Float64bits(got.Data()[i]) != math.Float64bits(v) {
			t.Fatalf("%s: weight %d is %v, the per-class oracle gives %v", name, i, got.Data()[i], v)
		}
	}
}

// blockClasses builds 3 features in two blocks that no row mixes — f0, and
// f1 with f2 — so every Hessian X⊤ diag(q) X is block diagonal, with
// centred blocks and three classes: class 1 lives on rows of the first
// block, class 3 on rows of the second, class 2 on both. At W = 0 the
// gradient of class 1 lies in the first block, class 3's in the second, so
// their CG recurrences finish after 1 and 2 steps and class 2's after 3.
func blockClasses(n int) (x, y *matrix.Dense) {
	rng := rand.New(rand.NewSource(5))
	x, y = matrix.NewDense(n, 3), matrix.NewDense(n, 1)
	half := n / 2
	for i := 0; i < n; i++ {
		if i < half {
			x.Set(i, 0, rng.NormFloat64())
		} else {
			x.Set(i, 1, rng.NormFloat64())
			x.Set(i, 2, rng.NormFloat64())
		}
	}
	for j, rows := range [][2]int{{0, half}, {half, n}, {half, n}} {
		mean := x.Slice(rows[0], rows[1], j, j+1).Sum() / float64(rows[1]-rows[0])
		for i := rows[0]; i < rows[1]; i++ {
			x.Set(i, j, x.At(i, j)-mean)
		}
	}
	for i := 0; i < n; i++ {
		switch {
		case i < half && x.At(i, 0) > 0:
			y.Set(i, 0, 1)
		case i >= half && x.At(i, 1) > 0:
			y.Set(i, 0, 3)
		default:
			y.Set(i, 0, 2)
		}
	}
	return x, y
}

// TestMLogRegEqualsPerClassOracle: running the classes' CG recurrences in
// lock-step, one multi-column mmchain per step, changes no bit of the
// weights against one CG loop per class — on local and on federated X, and
// when classes stop iterating at different steps.
func TestMLogRegEqualsPerClassOracle(t *testing.T) {
	cl := startCluster(t, 3)
	type dataset struct {
		name    string
		x, y    *matrix.Dense
		k       int
		maxIter [2]int // Newton, CG
	}
	var cases []dataset
	for _, c := range []struct {
		seed  int64
		d     int
		iters [2]int
	}{{4, 8, [2]int{3, 5}}, {9, 8, [2]int{3, 5}}, {21, 12, [2]int{2, 6}}} {
		x, y := data.MultiClass(c.seed, 240, c.d, 4)
		cases = append(cases, dataset{fmt.Sprintf("seed %d", c.seed), x, y, 4, c.iters})
	}
	bx, by := blockClasses(240)
	cases = append(cases, dataset{"early exit", bx, by, 3, [2]int{1, 10}})

	var mmchains atomic.Int64
	engine.SetInstrumentation(func(op string, _ time.Duration) {
		if op == "mmchain" {
			mmchains.Add(1)
		}
	})
	defer engine.SetInstrumentation(nil)
	for _, c := range cases {
		cfg := algo.MLogRegConfig{Classes: c.k, Lambda: 1e-3, Tolerance: 1e-6,
			MaxOuterIter: c.maxIter[0], MaxInnerIter: c.maxIter[1]}
		fx := federate(t, cl, c.x)
		for _, run := range []struct {
			name  string
			x     engine.Mat
			place func(*matrix.Dense) engine.Mat
		}{
			{"local", c.x, func(q *matrix.Dense) engine.Mat { return q }},
			{"federated", fx, func(q *matrix.Dense) engine.Mat {
				fq, err := federated.Distribute(cl.Coord, q, cl.Addrs, federated.RowPartitioned, privacy.Public)
				if err != nil {
					t.Fatal(err)
				}
				return fq
			}},
		} {
			name := c.name + " " + run.name
			mmchains.Store(0)
			res, err := algo.MLogReg(run.x, c.y, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			steps := int(mmchains.Load())
			want, wantInner := mlogregOracle(run.x, c.y, c.k, cfg, run.place)
			wantBitwise(t, name, res.Weights, want)
			if res.InnerIters != wantInner {
				t.Errorf("%s: %d CG iterations, oracle %d", name, res.InnerIters, wantInner)
			}
			if c.name == "early exit" && (res.InnerIters >= c.k*cfg.MaxInnerIter || res.InnerIters >= c.k*steps) {
				t.Errorf("%s: %d CG iterations in %d lock-step mmchains for %d classes: no class stopped before another",
					name, res.InnerIters, steps, c.k)
			}
		}
	}
}
