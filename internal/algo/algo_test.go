package algo_test

import (
	"math"
	"testing"

	"exdra/internal/algo"
	"exdra/internal/data"
	"exdra/internal/engine"
	"exdra/internal/federated"
	"exdra/internal/fedtest"
	"exdra/internal/matrix"
	"exdra/internal/privacy"
)

func startCluster(t *testing.T, n int) *fedtest.Cluster {
	t.Helper()
	cl, err := fedtest.Start(fedtest.Config{Workers: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func federate(t *testing.T, cl *fedtest.Cluster, x *matrix.Dense) *federated.Matrix {
	t.Helper()
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.PrivateAggregation)
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func TestLMLocalRecoversModel(t *testing.T) {
	t.Parallel()
	x, y := data.Regression(1, 300, 20, 0.01)
	res, err := algo.LM(x, y, algo.LMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := res.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if r2 := algo.R2(pred, y); r2 < 0.99 {
		t.Fatalf("LM R2=%g", r2)
	}
	if res.Iterations == 0 {
		t.Fatal("no CG iterations")
	}
}

func TestLMFederatedMatchesLocal(t *testing.T) {
	t.Parallel()
	cl := startCluster(t, 3)
	x, y := data.Regression(2, 120, 10, 0.05)
	local, err := algo.LM(x, y, algo.LMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fed, err := algo.LM(federate(t, cl, x), y, algo.LMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !fed.Weights.EqualApprox(local.Weights, 1e-6) {
		t.Fatal("federated LM weights differ from local")
	}
}

func TestL2SVMLocalAndFederated(t *testing.T) {
	t.Parallel()
	cl := startCluster(t, 3)
	x, y := data.Classification(3, 200, 12, 0.01)
	local, err := algo.L2SVM(x, y, algo.L2SVMConfig{MaxIterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	scores, err := local.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	// Squared hinge loss is outlier-sensitive, so flipped labels cost more
	// than their fraction; 0.93 leaves headroom over the ~0.99 ceiling.
	if acc := algo.Accuracy(scores, y); acc < 0.93 {
		t.Fatalf("L2SVM train accuracy %g", acc)
	}
	fed, err := algo.L2SVM(federate(t, cl, x), y, algo.L2SVMConfig{MaxIterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	if !fed.Weights.EqualApprox(local.Weights, 1e-5) {
		t.Fatal("federated L2SVM weights differ from local")
	}
	if local.InnerIterations == 0 {
		t.Fatal("line search never ran")
	}
}

func TestMLogRegLocalAndFederated(t *testing.T) {
	t.Parallel()
	cl := startCluster(t, 3)
	x, y := data.MultiClass(4, 240, 8, 4)
	cfg := algo.MLogRegConfig{MaxOuterIter: 6, MaxInnerIter: 8}
	local, err := algo.MLogReg(x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := classAccuracy(x.MatMul(local.Weights).RowIndexMax(), y); acc < 0.95 {
		t.Fatalf("MLogReg accuracy %g", acc)
	}
	fed, err := algo.MLogReg(federate(t, cl, x), y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !fed.Weights.EqualApprox(local.Weights, 1e-5) {
		t.Fatal("federated MLogReg weights differ from local")
	}
}

// classAccuracy is the fraction of rows whose 1-based class in pred
// matches y.
func classAccuracy(pred, y *matrix.Dense) float64 {
	correct := 0
	for i, p := range pred.Data() {
		if p == y.Data()[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred.Data()))
}

func TestKMeansLocalAndFederated(t *testing.T) {
	t.Parallel()
	cl := startCluster(t, 3)
	x, truth := data.Blobs(5, 300, 6, 4, 0.5)
	cfg := algo.KMeansConfig{K: 4, MaxIterations: 25, Runs: 5, Seed: 7}
	local, err := algo.KMeans(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Public federated data takes the same row-sampling initialization as
	// local execution, so results must match bit-for-bit up to tolerance.
	fpub, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	fed, err := algo.KMeans(fpub, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Identical seeds and deterministic ops: centroids must agree.
	if !fed.Centroids.EqualApprox(local.Centroids, 1e-6) {
		t.Fatal("federated K-Means centroids differ from local")
	}
	if math.Abs(fed.WCSS-local.WCSS) > 1e-6*math.Abs(local.WCSS) {
		t.Fatal("WCSS differs")
	}
	// Clusters should separate the blobs well: assignment purity check.
	purity := clusterPurity(nearestCentroid(x, local.Centroids), truth, 4)
	if purity < 0.9 {
		t.Fatalf("cluster purity %g", purity)
	}
	// Under PrivateAggregation, row sampling is forbidden; K-Means must
	// fall back to aggregate-statistics initialization and still run.
	priv, err := algo.KMeans(federate(t, cl, x), algo.KMeansConfig{K: 4, MaxIterations: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if priv.Centroids == nil || math.IsInf(priv.WCSS, 1) {
		t.Fatal("private K-Means produced no model")
	}
}

// nearestCentroid returns each row's 1-based nearest centroid: the argmax
// of 2 x c' - |c|^2, which orders the centroids as -|x - c|^2 does.
func nearestCentroid(x, c *matrix.Dense) *matrix.Dense {
	return x.MatMul(c.Transpose()).Scale(2).Binary(matrix.OpSub, c.Mul(c).RowSums().Transpose()).RowIndexMax()
}

func clusterPurity(assign *matrix.Dense, truth []int, k int) float64 {
	counts := make([][]int, k+1)
	for i := range counts {
		counts[i] = make([]int, k)
	}
	for i, tc := range truth {
		c := int(assign.At(i, 0))
		counts[c][tc]++
	}
	correct := 0
	for _, row := range counts {
		best := 0
		for _, n := range row {
			if n > best {
				best = n
			}
		}
		correct += best
	}
	return float64(correct) / float64(len(truth))
}

func TestPCALocalAndFederated(t *testing.T) {
	t.Parallel()
	cl := startCluster(t, 3)
	x, _ := data.Blobs(6, 200, 12, 3, 1)
	cfg := algo.PCAConfig{K: 4}
	localRes, localProj, err := algo.PCA(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fedRes, fedProj, err := algo.PCA(federate(t, cl, x), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !fedRes.Values.EqualApprox(localRes.Values, 1e-6) {
		t.Fatal("federated PCA eigenvalues differ")
	}
	lp := engine.Local(localProj)
	fp := engine.Local(fedProj)
	// Eigenvector signs are arbitrary; compare absolute projections.
	if !lp.Unary(matrix.UAbs).EqualApprox(fp.Unary(matrix.UAbs), 1e-6) {
		t.Fatal("federated PCA projection differs")
	}
	// Projection must be decorrelated: off-diagonals of t(P)P near zero.
	cov := lp.TSMM()
	for i := 0; i < cov.Rows(); i++ {
		for j := 0; j < cov.Cols(); j++ {
			if i != j && math.Abs(cov.At(i, j)) > 1e-6*math.Abs(cov.At(i, i)) {
				t.Fatalf("projection not decorrelated at (%d,%d)", i, j)
			}
		}
	}
	// Variance captured decreases along components.
	for i := 1; i < cfg.K; i++ {
		if localRes.Values.At(i, 0) > localRes.Values.At(i-1, 0)+1e-9 {
			t.Fatal("eigenvalues not sorted")
		}
	}
}

func TestGMMFitsBlobsAndFlagsAnomalies(t *testing.T) {
	t.Parallel()
	x, _ := data.Blobs(7, 400, 5, 3, 0.5)
	res, err := algo.GMM(x, algo.GMMConfig{K: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("EM did not iterate")
	}
	wsum := 0.0
	for _, w := range res.Weights {
		wsum += w
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Fatalf("mixture weights sum to %g", wsum)
	}
	// Density of training points must exceed density of far-away outliers.
	inl := res.LogDensity(x.SliceRows(0, 50)).Mean()
	out := res.LogDensity(matrix.Fill(10, 5, 100)).Mean()
	if inl <= out {
		t.Fatalf("inlier density %g <= outlier density %g", inl, out)
	}
}

func TestGMMEnsembleTaskParallel(t *testing.T) {
	t.Parallel()
	x1, _ := data.Blobs(8, 120, 4, 2, 0.5)
	x2, _ := data.Blobs(9, 150, 4, 2, 0.5)
	models, err := algo.TrainGMMEnsemble([]*matrix.Dense{x1, x2}, algo.GMMConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 || models[0] == nil || models[1] == nil {
		t.Fatal("ensemble incomplete")
	}
	// Too few rows must error.
	if _, err := algo.GMM(matrix.NewDense(1, 3), algo.GMMConfig{K: 3}); err == nil {
		t.Fatal("GMM accepted fewer rows than components")
	}
}

func TestAlgorithmsPreservePrivacy(t *testing.T) {
	t.Parallel()
	// Every federated training above runs under PrivateAggregation:
	// verify the raw partitions themselves remain untransferable.
	cl := startCluster(t, 2)
	x, y := data.Regression(10, 60, 6, 0.05)
	fx := federate(t, cl, x)
	if _, err := algo.LM(fx, y, algo.LMConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.Consolidate(); err == nil {
		t.Fatal("raw federated data became transferable after training")
	}
}
