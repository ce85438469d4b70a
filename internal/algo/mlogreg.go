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
// 1-based class indices held at the coordinator; on federated X their
// one-hot matrix is placed beside X once per call, so the n x classes
// probabilities P never leave the workers: a Newton step reads the gradient
// X⊤(P - Y) and one Hessian-vector product per CG step, each a round trip
// that carries only cols x classes aggregates.
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

	// One-hot targets, placed once beside X: the gradient's P - Y is then
	// made where P is, and only t(X) %*% (P - Y) travels. A worker that
	// holds X and W and could receive P - Y can recover Y from it anyway.
	yOne := matrix.NewDense(n, k)
	for i := 0; i < n; i++ {
		yOne.Set(i, int(y.At(i, 0))-1, 1)
	}
	yx := engine.Colocate(yOne, x)

	outer, innerTotal := 0, 0
	for ; outer < maxOuter; outer++ {
		// Class probabilities P = softmax(X %*% W) and D = P - Y stay
		// federated; they consolidate as aggregates only via the gradient.
		xw := engine.MatMul(x, w)
		sm := engine.Softmax(xw)
		pmy := engine.Sub(sm, yx)
		engine.Free(xw)

		// Gradient G = t(X) %*% (P - Y1) + lambda*W.
		g := engine.Local(engine.TMatMul(x, pmy))
		engine.Free(pmy)
		g.AxpyInPlace(lambda, w)
		if g.Norm2() < tol {
			engine.Free(sm)
			break
		}

		// Hessian weights Q = P ⊙ (1-P) + 1e-8, one column per class, made
		// where P is: three deferred element-wise ops, no round trip.
		omp := engine.BinaryScalar(matrix.OpSub, sm, 1, true)
		pq := engine.Mul(sm, omp)
		engine.Free(sm, omp)
		q := engine.BinaryScalar(matrix.OpAdd, pq, 1e-8, false)
		engine.Free(pq)

		innerTotal += newtonDirections(x, q, g, w, lambda, maxInner)
		engine.Free(q)
	}
	engine.Free(yx)
	return &MLogRegResult{Weights: w, OuterIters: outer, InnerIters: innerTotal}, nil
}

// newtonDirections solves the k per-class Newton systems (X⊤ diag(q_c) X +
// lambda I) dir_c = -g_c by CG and adds each dir_c to column c of w. The k
// recurrences run in lock-step: one step evaluates the Hessian-vector
// products of every class still iterating as one fused mmchain
// X⊤(Q ⊙ (X V)) — the paper's inner X⊤(w ⊙ (Xv)), one round trip for all
// classes — where a class that has stopped is a zero column of V. Each
// class's arithmetic is the single-class recurrence in its own order, so no
// result depends on which classes share a step. It returns the CG
// iterations summed over classes.
func newtonDirections(x, q engine.Mat, g, w *matrix.Dense, lambda float64, maxInner int) int {
	d, k := g.Rows(), g.Cols()
	type class struct {
		dir, r, pv *matrix.Dense
		rs         float64
		iters      int
	}
	cls := make([]class, k)
	for c := range cls {
		r := g.SliceCols(c, c+1).Neg()
		cls[c] = class{dir: matrix.NewDense(d, 1), r: r, pv: r.Clone(), rs: matrix.Dot(r, r)}
	}
	for {
		v := matrix.NewDense(d, k)
		var live []int
		for c, s := range cls {
			if s.iters < maxInner && s.rs > 1e-16 {
				v.SetSlice(0, c, s.pv)
				live = append(live, c)
			}
		}
		if len(live) == 0 {
			break
		}
		hvs := engine.MMChain(x, v, q)
		for _, c := range live {
			s := &cls[c]
			hv := hvs.SliceCols(c, c+1)
			hv.AxpyInPlace(lambda, s.pv)
			alpha := s.rs / matrix.Dot(s.pv, hv)
			s.dir.AxpyInPlace(alpha, s.pv)
			s.r.AxpyInPlace(-alpha, hv)
			rsNew := matrix.Dot(s.r, s.r)
			beta := rsNew / s.rs
			for i, rv := range s.r.Data() {
				s.pv.Data()[i] = rv + beta*s.pv.Data()[i]
			}
			s.rs = rsNew
			s.iters++
		}
	}
	total := 0
	for c, s := range cls {
		for i := 0; i < d; i++ {
			w.Set(i, c, w.At(i, c)+s.dir.At(i, 0))
		}
		total += s.iters
	}
	return total
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
