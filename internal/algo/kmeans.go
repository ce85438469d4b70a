package algo

import (
	"math"
	"math/rand"

	"exdra/internal/engine"
	"exdra/internal/matrix"
)

// KMeansConfig configures Lloyd's K-Means clustering.
type KMeansConfig struct {
	K             int     // number of centroids (default 50, as in §6.1)
	MaxIterations int     // per-run iteration cap (default 20)
	Runs          int     // independent restarts (default 1)
	Tolerance     float64 // relative WCSS improvement threshold (default 1e-6)
	Seed          int64   // centroid initialization seed
}

// KMeansResult is a clustering model.
type KMeansResult struct {
	Centroids  *matrix.Dense // K x cols
	WCSS       float64       // within-cluster sum of squares of the best run
	Iterations int           // iterations of the best run
}

// KMeans implements the inner loop of Example 3 in the paper verbatim:
//
//	D = -2 * (X %*% t(C)) + t(rowSums(C^2))
//	P = (D <= rowMins(D)); P = P / rowSums(P)
//	P_denom = colSums(P);  C_new = (t(P) %*% X) / t(P_denom)
//
// On federated X, the first multiplication yields an aligned federated
// intermediate, the element-wise steps stay federated, and only the
// aggregates sum(P*D), colSums(P) and t(P) %*% X are consolidated — read
// together, so a Lloyd step costs one round trip per worker.
func KMeans(x engine.Mat, cfg KMeansConfig) (res *KMeansResult, err error) {
	defer engine.Guard(&err)
	k := cfg.K
	if k == 0 {
		k = 50
	}
	maxIter := cfg.MaxIterations
	if maxIter == 0 {
		maxIter = 20
	}
	runs := cfg.Runs
	if runs == 0 {
		runs = 1
	}
	tol := cfg.Tolerance
	if tol == 0 {
		tol = 1e-6
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// sum(X^2) waits until a later read forces it: a step's, or any call
	// that reaches its worker first.
	xx := engine.Binary(matrix.OpMul, x, x)
	xsq := engine.QueueAgg(matrix.AggSum, xx)
	engine.Free(xx)

	best := &KMeansResult{WCSS: math.Inf(1)}
	for run := 0; run < runs; run++ {
		c := initCentroids(rng, x, k)
		prev := math.Inf(1)
		iters := 0
		for ; iters < maxIter; iters++ {
			cNew, wcss := kmeansStep(x, c, xsq)
			c = cNew
			if prev-wcss <= tol*math.Abs(prev) {
				prev = wcss
				iters++
				break
			}
			prev = wcss
		}
		if prev < best.WCSS {
			best = &KMeansResult{Centroids: c, WCSS: prev, Iterations: iters}
		}
	}
	return best, nil
}

// kmeansStep performs one Lloyd iteration and returns the new centroids and
// the within-cluster sum of squares under the current assignment. Its three
// reads, and sum(X^2) if that is still pending, are fetched together.
func kmeansStep(x engine.Mat, c *matrix.Dense, xsq *engine.Scalar) (*matrix.Dense, float64) {
	k := c.Rows()
	// D = -2 * (X %*% t(C)) + t(rowSums(C^2))  (squared distances up to the
	// row-constant ||x||^2, which does not affect the argmin).
	cs := c.Mul(c).RowSums().Transpose() // 1 x K
	xc := engine.MatMul(x, c.Transpose())
	xc2 := engine.Scale(xc, -2)
	d := engine.Binary(matrix.OpAdd, xc2, cs)
	// P = (D <= rowMins(D)); share ties: P = P / rowSums(P).
	dm := engine.RowAgg(matrix.AggMin, d)
	p0 := engine.Binary(matrix.OpLe, d, dm)
	prs := engine.RowAgg(matrix.AggSum, p0)
	p := engine.Div(p0, prs)
	// WCSS = sum(X^2) + sum(P * D) (adding back the row constants);
	// C_new = (t(P) %*% X) / t(P_denom).
	pd := engine.Mul(p, d)
	spd := engine.QueueAgg(matrix.AggSum, pd)
	pdenH := engine.QueueColAgg(matrix.AggSum, p) // 1 x K
	ptxH := engine.QueueTMatMul(p, x)             // K x cols
	engine.Fetch(xsq, spd, pdenH, ptxH)
	wcss := xsq.Value() + spd.Value()
	pden := pdenH.Value()
	cNew := ptxH.Value().Div(pden.Transpose())
	// Re-seed empty clusters at their previous centroid.
	for i := 0; i < k; i++ {
		if pden.At(0, i) == 0 {
			for j := 0; j < c.Cols(); j++ {
				cNew.Set(i, j, c.At(i, j))
			}
		}
	}
	engine.Free(xc, xc2, d, dm, p0, prs, p, pd)
	return cNew, wcss
}

// initCentroids samples K distinct rows of X as initial centroids (the
// SystemDS strategy; on federated data each sample is a single-row
// transfer). If privacy constraints forbid transferring raw rows, it falls
// back to drawing centroids from N(colMeans, colSDs) — aggregate column
// statistics that remain exchangeable under PrivateAggregation.
func initCentroids(rng *rand.Rand, x engine.Mat, k int) *matrix.Dense {
	if c := trySampleRows(rng, x, k); c != nil {
		return c
	}
	mh, sh := engine.QueueColAgg(matrix.AggMean, x), engine.QueueColAgg(matrix.AggSD, x)
	engine.Fetch(mh, sh)
	means, sds := mh.Value(), sh.Value()
	c := matrix.NewDense(k, x.Cols())
	for i := 0; i < k; i++ {
		for j := 0; j < x.Cols(); j++ {
			c.Set(i, j, means.At(0, j)+sds.At(0, j)*rng.NormFloat64())
		}
	}
	return c
}

// trySampleRows gathers K distinct random rows, returning nil if the
// transfer violates a privacy constraint.
func trySampleRows(rng *rand.Rand, x engine.Mat, k int) (c *matrix.Dense) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(*engine.Error); ok {
				c = nil
				return
			}
			panic(r)
		}
	}()
	n := x.Rows()
	c = matrix.NewDense(k, x.Cols())
	seen := map[int]bool{}
	for i := 0; i < k; i++ {
		r := rng.Intn(n)
		for seen[r] {
			r = rng.Intn(n)
		}
		seen[r] = true
		row := collect(engine.Slice(x, r, r+1, 0, x.Cols()))
		c.SetSlice(i, 0, row)
	}
	return c
}
