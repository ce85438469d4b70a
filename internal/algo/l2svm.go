package algo

import (
	"math"

	"exdra/internal/engine"
	"exdra/internal/matrix"
)

// L2SVMConfig configures the L2-regularized squared-hinge-loss SVM.
type L2SVMConfig struct {
	Lambda        float64 // regularization (default 1e-3)
	Tolerance     float64 // outer convergence tolerance (default 1e-9)
	MaxIterations int     // outer iterations cap (default 100)
	MaxInnerIter  int     // line-search iterations cap (default 20)
}

// L2SVMResult is a trained binary L2-SVM.
type L2SVMResult struct {
	Weights         *matrix.Dense
	Iterations      int
	Objective       float64
	InnerIterations int
}

// L2SVM trains a binary classifier with labels in {-1, +1} using nonlinear
// conjugate gradient with a Newton line search — the two nested while loops
// the paper describes: the outer loop computes gradients over the federated
// X (t(X) %*% v patterns); the inner loop line-searches along the gradient
// using only vector operations at the coordinator.
func L2SVM(x engine.Mat, y *matrix.Dense, cfg L2SVMConfig) (res *L2SVMResult, err error) {
	defer engine.Guard(&err)
	lambda := cfg.Lambda
	if lambda == 0 {
		lambda = 1e-3
	}
	tol := cfg.Tolerance
	if tol == 0 {
		tol = 1e-9
	}
	maxIter := cfg.MaxIterations
	if maxIter == 0 {
		maxIter = 100
	}
	maxInner := cfg.MaxInnerIter
	if maxInner == 0 {
		maxInner = 20
	}
	nc := x.Cols()
	w := matrix.NewDense(nc, 1)

	// out = 1 - Y * (X %*% w); with w = 0 this is the all-ones vector.
	xw := matrix.NewDense(y.Rows(), 1)
	out := onesMinus(y, xw)
	sv := out.BinaryScalar(matrix.OpGt, 0, false)
	out = out.Mul(sv)

	// g_old = t(X) %*% (out * Y)
	gOld := engine.Local(engine.TMatMul(x, out.Mul(y)))
	s := gOld.Clone()

	iters, innerTotal := 0, 0
	var obj float64
	for iters < maxIter {
		// Xd = X %*% s over the federated data (matrix-vector of Example 2),
		// consolidated because every inner iteration needs it at the
		// coordinator (vector ops dominate, as the paper notes for L2SVM).
		xd := collect(engine.MatMul(x, s))
		wd := lambda * matrix.Dot(w, s)
		dd := lambda * matrix.Dot(s, s)
		stepSz := 0.0
		for inner := 0; inner < maxInner; inner++ {
			// out = 1 - Y*(Xw + step*Xd), sv = out > 0 — pure vector math.
			cand := xw.PlusMult(stepSz, xd)
			outI := onesMinus(y, cand)
			svI := outI.BinaryScalar(matrix.OpGt, 0, false)
			outI = outI.Mul(svI)
			g := wd + stepSz*dd - matrix.Dot(outI.Mul(y), xd)
			h := dd + matrix.Dot(xd.Mul(svI), xd)
			if h == 0 {
				break
			}
			stepSz -= g / h
			innerTotal++
			if g*g <= 1e-12*h {
				break
			}
		}
		w.AxpyInPlace(stepSz, s)
		xw.AxpyInPlace(stepSz, xd)

		out = onesMinus(y, xw)
		sv = out.BinaryScalar(matrix.OpGt, 0, false)
		out = out.Mul(sv)
		obj = 0.5*matrix.Dot(out, out) + lambda/2*matrix.Dot(w, w)

		gNew := engine.Local(engine.TMatMul(x, out.Mul(y)))
		gNew.AxpyInPlace(-lambda, w)

		iters++
		gg := matrix.Dot(gOld, s)
		if stepSz*gg < tol*obj {
			break
		}
		beta := matrix.Dot(gNew, gNew) / matrix.Dot(gOld, gOld)
		for i, gv := range gNew.Data() {
			s.Data()[i] = gv + beta*s.Data()[i]
		}
		gOld = gNew
	}
	return &L2SVMResult{Weights: w, Iterations: iters, Objective: obj, InnerIterations: innerTotal}, nil
}

// onesMinus computes 1 - y*v element-wise for column vectors.
func onesMinus(y, v *matrix.Dense) *matrix.Dense {
	out := matrix.NewDense(y.Rows(), 1)
	for i := range out.Data() {
		out.Data()[i] = 1 - y.Data()[i]*v.Data()[i]
	}
	return out
}

// Predict returns the signed decision values X %*% w.
func (m *L2SVMResult) Predict(x engine.Mat) (out *matrix.Dense, err error) {
	defer engine.Guard(&err)
	return collect(engine.MatMul(x, m.Weights)), nil
}

// Accuracy computes the fraction of sign-correct predictions for labels in
// {-1, +1}.
func Accuracy(scores, y *matrix.Dense) float64 {
	correct := 0
	for i, s := range scores.Data() {
		if math.Signbit(s) == math.Signbit(y.Data()[i]) {
			correct++
		}
	}
	return float64(correct) / float64(len(scores.Data()))
}
