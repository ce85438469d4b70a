// Package algo implements the batch ML algorithms of the ExDRa evaluation
// (§6.1): linear regression (LM, conjugate gradient), L2-regularized SVM,
// multinomial logistic regression, K-Means, PCA, and Gaussian mixture
// models. Every algorithm is written as a backend-agnostic "script" against
// package engine, so the identical code trains on local and on federated
// matrices — the property the paper's federated runtime provides for
// SystemDS built-ins.
package algo

import (
	"math"

	"exdra/internal/engine"
	"exdra/internal/matrix"
)

// LMConfig configures conjugate-gradient linear regression (the iterative
// lmCG method SystemDS selects for ncol(X) > 1024, and the one the paper's
// LM experiment exercises).
type LMConfig struct {
	// Lambda is the L2 regularization constant (default 1e-3 if zero and
	// UseZeroLambda is false).
	Lambda float64
	// Tolerance on the relative residual norm (default 1e-9).
	Tolerance float64
	// MaxIterations caps CG iterations (default ncol(X)).
	MaxIterations int
	// Intercept adds a bias column of ones when true.
	Intercept bool
}

// LMResult is a trained linear model.
type LMResult struct {
	// Weights is the (cols [+1 intercept]) x 1 coefficient vector.
	Weights *matrix.Dense
	// Iterations is the number of CG iterations performed.
	Iterations int
}

// LM fits y ~ X w by conjugate gradient on the normal equations
// (t(X)X + lambda I) w = t(X) y, evaluating each Hessian-vector product as
// the fused federated chain t(X) %*% (X %*% p) — the X⊤(Xv) per-iteration
// pattern the paper describes for LM.
func LM(x engine.Mat, y *matrix.Dense, cfg LMConfig) (res *LMResult, err error) {
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
		maxIter = x.Cols()
	}
	n := x.Cols()

	// r = -t(X) %*% y   (gradient at w = 0)
	r := engine.Local(engine.TMatMul(x, y)).Neg()
	w := matrix.NewDense(n, 1)
	p := r.Neg()
	normR2 := matrix.Dot(r, r)
	norm0 := math.Sqrt(normR2)
	iters := 0
	for normR2 > tol*tol*norm0*norm0 && iters < maxIter {
		// q = t(X) %*% (X %*% p) + lambda * p — one fused mmchain per
		// iteration over the federated X.
		q := engine.MMChain(x, p, nil)
		q.AxpyInPlace(lambda, p)
		alpha := normR2 / matrix.Dot(p, q)
		w.AxpyInPlace(alpha, p)
		r.AxpyInPlace(alpha, q)
		newNorm := matrix.Dot(r, r)
		beta := newNorm / normR2
		for i, rv := range r.Data() {
			p.Data()[i] = -rv + beta*p.Data()[i]
		}
		normR2 = newNorm
		iters++
	}
	return &LMResult{Weights: w, Iterations: iters}, nil
}

// Predict computes X %*% w as a local vector.
func (m *LMResult) Predict(x engine.Mat) (out *matrix.Dense, err error) {
	defer engine.Guard(&err)
	return collect(engine.MatMul(x, m.Weights)), nil
}

// collect pins an intermediate into coordinator memory and releases its
// worker-side partitions — also when the transfer is refused.
func collect(a engine.Mat) *matrix.Dense {
	defer engine.Free(a)
	return engine.Local(a)
}

// R2 computes the coefficient of determination of predictions against
// targets.
func R2(pred, y *matrix.Dense) float64 {
	meanY := y.Mean()
	ssRes, ssTot := 0.0, 0.0
	for i, p := range pred.Data() {
		d := y.Data()[i] - p
		ssRes += d * d
		t := y.Data()[i] - meanY
		ssTot += t * t
	}
	return 1 - ssRes/ssTot
}
