package algo

import (
	"exdra/internal/engine"
	"exdra/internal/matrix"
)

// PCAConfig configures principal component analysis.
type PCAConfig struct {
	// K is the number of projected features (default 10, as in §6.1).
	K int
	// Center subtracts column means before computing the covariance
	// (default true; set SkipCentering to disable).
	SkipCentering bool
}

// PCAResult holds the fitted projection.
type PCAResult struct {
	// Components is cols x K (eigenvectors of the covariance matrix).
	Components *matrix.Dense
	// Values are the K leading eigenvalues.
	Values *matrix.Dense
	// Means are the column means used for centering (nil if disabled).
	Means *matrix.Dense
}

// PCA is the non-iterative algorithm of §6.2: it computes the covariance
// from the federated aggregate t(X) %*% X (one federated tsmm) plus column
// means, read together in one round trip, eigen-decomposes at the
// coordinator, and projects the data via a second matrix multiplication.
func PCA(x engine.Mat, cfg PCAConfig) (res *PCAResult, proj engine.Mat, err error) {
	defer engine.Guard(&err)
	k := cfg.K
	if k == 0 {
		k = 10
	}
	if k > x.Cols() {
		k = x.Cols()
	}
	n := float64(x.Rows())

	xtx := engine.QueueTSMM(x)
	var means, cov *matrix.Dense
	if cfg.SkipCentering {
		cov = xtx.Value()
	} else {
		mh := engine.QueueColAgg(matrix.AggMean, x) // 1 x cols
		engine.Fetch(xtx, mh)
		means = mh.Value()
		// cov = (t(X)X - n * t(mu) mu) / (n-1)
		mm := means.TMatMul(means).Scale(n)
		cov = xtx.Value().Sub(mm)
	}
	cov = cov.Scale(1 / (n - 1))

	vals, vecs := matrix.EigenSym(cov)
	comp := vecs.SliceCols(0, k)
	top := vals.SliceRows(0, k)

	// Project the (optionally centered) data: stays federated for federated
	// inputs — the second dominating matrix multiplication of §6.2.
	res = &PCAResult{Components: comp, Values: top, Means: means}
	return res, res.project(x), nil
}

// project centers x (when the model was fitted centered) and multiplies by
// the components; the centered intermediate is released, the projection is
// the caller's.
func (m *PCAResult) project(x engine.Mat) engine.Mat {
	if m.Means == nil {
		return engine.MatMul(x, m.Components)
	}
	centered := engine.Binary(matrix.OpSub, x, m.Means)
	proj := engine.MatMul(centered, m.Components)
	engine.Free(centered)
	return proj
}
