package algo

import (
	"exdra/internal/engine"
	"exdra/internal/matrix"
)

// MLogRegConfig configures multinomial logistic regression.
type MLogRegConfig struct {
	Classes      int     // number of classes (inferred from labels if zero)
	Lambda       float64 // L2 regularization (default 1e-3)
	MaxOuterIter int     // Newton iterations (default 20)
	MaxInnerIter int     // CG iterations per Newton step (default 10)
	Tolerance    float64 // gradient-norm tolerance (default 1e-6)
}

// MLogRegResult is a trained multinomial logistic-regression model.
type MLogRegResult struct {
	// Weights is cols x classes.
	Weights    *matrix.Dense
	OuterIters int
	InnerIters int
}

// MLogReg trains multi-class logistic regression with two nested while
// loops (as the paper describes): an outer Newton loop and an inner
// conjugate-gradient loop whose every iteration evaluates the
// Hessian-vector product X⊤(q ⊙ (Xv)) over the federated X. Labels y are
// 1-based class indices held at the coordinator.
func MLogReg(x engine.Mat, y *matrix.Dense, cfg MLogRegConfig) (res *MLogRegResult, err error) {
	defer engine.Guard(&err)
	lambda := cfg.Lambda
	if lambda == 0 {
		lambda = 1e-3
	}
	maxOuter := cfg.MaxOuterIter
	if maxOuter == 0 {
		maxOuter = 20
	}
	maxInner := cfg.MaxInnerIter
	if maxInner == 0 {
		maxInner = 10
	}
	tol := cfg.Tolerance
	if tol == 0 {
		tol = 1e-6
	}
	k := cfg.Classes
	if k == 0 {
		k = int(y.Max())
	}
	n, d := x.Rows(), x.Cols()
	w := matrix.NewDense(d, k)

	// One-hot targets at the coordinator.
	yOne := matrix.NewDense(n, k)
	for i := 0; i < n; i++ {
		yOne.Set(i, int(y.At(i, 0))-1, 1)
	}

	outer, innerTotal := 0, 0
	for ; outer < maxOuter; outer++ {
		// Class probabilities P = softmax(X %*% W): the product stays
		// federated; the per-class columns consolidate as aggregates only
		// via the gradient below.
		xw := engine.MatMul(x, w)
		sm := engine.Softmax(xw)
		p := engine.Local(sm)
		engine.Free(xw, sm)

		// Gradient G = t(X) %*% (P - Y1) + lambda*W.
		g := engine.Local(engine.TMatMul(x, p.Sub(yOne)))
		g.AxpyInPlace(lambda, w)
		if g.Norm2() < tol {
			break
		}

		// Newton direction per class via CG with Hessian-vector products
		// Hv = X⊤(q ⊙ (Xv)) + lambda v, q = p_c(1-p_c) — the paper's inner
		// X⊤(w ⊙ (Xv)) pattern, one fused federated mmchain per iteration.
		for c := 0; c < k; c++ {
			q := matrix.NewDense(n, 1)
			for i := 0; i < n; i++ {
				pc := p.At(i, c)
				q.Set(i, 0, pc*(1-pc)+1e-8)
			}
			gc := g.SliceCols(c, c+1)
			dir := matrix.NewDense(d, 1)
			r := gc.Neg()
			pv := r.Clone()
			rs := matrix.Dot(r, r)
			for inner := 0; inner < maxInner && rs > 1e-16; inner++ {
				hv := engine.MMChain(x, pv, q)
				hv.AxpyInPlace(lambda, pv)
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
			for i := 0; i < d; i++ {
				w.Set(i, c, w.At(i, c)+dir.At(i, 0))
			}
		}
	}
	return &MLogRegResult{Weights: w, OuterIters: outer, InnerIters: innerTotal}, nil
}

// Predict returns the 1-based predicted class per row.
func (m *MLogRegResult) Predict(x engine.Mat) (out *matrix.Dense, err error) {
	defer engine.Guard(&err)
	scores := engine.MatMul(x, m.Weights)
	pred := collect(engine.RowIndexMax(scores))
	engine.Free(scores)
	return pred, nil
}

// ClassAccuracy computes the fraction of exact class matches for 1-based
// class index vectors.
func ClassAccuracy(pred, y *matrix.Dense) float64 {
	correct := 0
	for i, p := range pred.Data() {
		if p == y.Data()[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred.Data()))
}
