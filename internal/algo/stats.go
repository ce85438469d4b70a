package algo

import (
	"exdra/internal/engine"
	"exdra/internal/matrix"
)

// CorrelationMatrix computes the Pearson correlation matrix of the columns
// of X — one of the pre-processing steps §6.3 lists for the remaining use
// case pipelines. On federated X it needs exactly one federated tsmm plus
// column aggregates, read together in one round trip; the raw data never
// moves.
func CorrelationMatrix(x engine.Mat) (out *matrix.Dense, err error) {
	defer engine.Guard(&err)
	n := float64(x.Rows())
	xtxH := engine.QueueTSMM(x)
	meansH, sdsH := engine.QueueColAgg(matrix.AggMean, x), engine.QueueColAgg(matrix.AggSD, x)
	engine.Fetch(xtxH, meansH, sdsH)
	xtx, means, sds := xtxH.Value(), meansH.Value(), sdsH.Value()
	d := x.Cols()
	out = matrix.NewDense(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			cov := (xtx.At(i, j) - n*means.At(0, i)*means.At(0, j)) / (n - 1)
			denom := sds.At(0, i) * sds.At(0, j)
			if denom == 0 {
				if i == j {
					out.Set(i, j, 1)
				}
				continue
			}
			out.Set(i, j, cov/denom)
		}
	}
	return out, nil
}
