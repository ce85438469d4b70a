package algo_test

import (
	"testing"

	"exdra/internal/algo"
	"exdra/internal/data"
	"exdra/internal/engine"
	"exdra/internal/federated"
	"exdra/internal/fedtest"
	"exdra/internal/matrix"
	"exdra/internal/obs"
	"exdra/internal/privacy"
)

// TestAlgorithmsFreeTheirIntermediates: after each algorithm (and each
// model's apply step) on a federated X, every worker holds only the inputs —
// plus the projection PCA returns, until the caller frees it.
func TestAlgorithmsFreeTheirIntermediates(t *testing.T) {
	cl := startCluster(t, 3)
	xr, yr := data.Regression(1, 300, 10, 0.05)
	xc, yc := data.Classification(2, 300, 10, 0.02)
	xm, ym := data.MultiClass(4, 240, 8, 4)
	xb, _ := data.Blobs(5, 240, 6, 4, 0.5)
	public := func(x *matrix.Dense) *federated.Matrix {
		fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
		if err != nil {
			t.Fatal(err)
		}
		return fx
	}
	// Training runs under PrivateAggregation, as in the paper's setting;
	// predictions are consolidated, so they get a Public copy of the input.
	pr, pc, pm := public(xr), public(xc), public(xm)
	steps := []struct {
		name string
		x    *federated.Matrix
		run  func(x *federated.Matrix) (kept engine.Mat, err error)
	}{
		{"lm", federate(t, cl, xr), func(x *federated.Matrix) (engine.Mat, error) {
			res, err := algo.LM(x, yr, algo.LMConfig{})
			if err == nil {
				_, err = res.Predict(pr)
			}
			return nil, err
		}},
		{"l2svm", federate(t, cl, xc), func(x *federated.Matrix) (engine.Mat, error) {
			res, err := algo.L2SVM(x, yc, algo.L2SVMConfig{MaxIterations: 12})
			if err == nil {
				_, err = res.Predict(pc)
			}
			return nil, err
		}},
		{"mlogreg", federate(t, cl, xm), func(x *federated.Matrix) (engine.Mat, error) {
			res, err := algo.MLogReg(x, ym, algo.MLogRegConfig{MaxOuterIter: 3, MaxInnerIter: 4})
			if err == nil {
				_, err = res.Predict(pm)
			}
			return nil, err
		}},
		// Under PrivateAggregation the row sampling is refused and K-Means
		// seeds from column statistics; under Public it samples rows.
		{"kmeans private", federate(t, cl, xb), func(x *federated.Matrix) (engine.Mat, error) {
			_, err := algo.KMeans(x, algo.KMeansConfig{K: 4, MaxIterations: 3, Seed: 3})
			return nil, err
		}},
		{"kmeans public", public(xb), func(x *federated.Matrix) (engine.Mat, error) {
			res, err := algo.KMeans(x, algo.KMeansConfig{K: 4, MaxIterations: 3, Seed: 3})
			if err == nil {
				_, err = res.Assign(x)
			}
			return nil, err
		}},
		{"pca", federate(t, cl, xb), func(x *federated.Matrix) (engine.Mat, error) {
			res, proj, err := algo.PCA(x, algo.PCAConfig{K: 3})
			if err != nil {
				return nil, err
			}
			again, err := res.Transform(x)
			engine.Free(again)
			return proj, err
		}},
		{"correlation", federate(t, cl, xb), func(x *federated.Matrix) (engine.Mat, error) {
			_, err := algo.CorrelationMatrix(x)
			return nil, err
		}},
	}
	if err := cl.Coord.Flush(); err != nil {
		t.Fatal(err)
	}
	inputs := objectCounts(cl)
	for _, s := range steps {
		kept, err := s.run(s.x)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if err := cl.Coord.Flush(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		want := 0
		if kept != nil {
			want = 1 // one partition of the returned handle per worker
		}
		for i, n := range objectCounts(cl) {
			if n-inputs[i] != want {
				t.Errorf("%s: worker %d holds %d objects beyond the inputs, want %d", s.name, i, n-inputs[i], want)
			}
		}
		engine.Free(kept)
	}
	if err := cl.Coord.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, n := range objectCounts(cl) {
		if n != inputs[i] {
			t.Errorf("worker %d holds %d objects at the end, %d inputs", i, n, inputs[i])
		}
	}
}

func objectCounts(cl *fedtest.Cluster) []int {
	n := make([]int, len(cl.Workers))
	for i, w := range cl.Workers {
		n[i] = w.NumObjects()
	}
	return n
}

// TestAlgorithmCallBudgets pins how many RPCs the scripts cost per worker,
// so that batching cannot regress without a timing in sight: LM one call
// per CG iteration, L2SVM two per outer iteration, MLogReg one per Newton
// step plus one per CG step whatever the class count, one K-Means Lloyd step
// one, PCA one in total; and a whole PrivateAggregation K-Means run of one
// step five calls on two workers. rpc.client.calls repeats exactly.
func TestAlgorithmCallBudgets(t *testing.T) {
	reg := obs.New()
	cl, err := fedtest.Start(fedtest.Config{Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	workers := int64(len(cl.Addrs))
	calls := func(fn func()) int64 {
		before := reg.Snapshot()
		fn()
		return reg.Snapshot().Diff(before).Counters["rpc.client.calls"]
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	x, y := data.Regression(1, 200, 8, 0.05)
	fx := federate(t, cl, x)
	var lm *algo.LMResult
	n := calls(func() { lm, err = algo.LM(fx, y, algo.LMConfig{}) })
	must(err)
	if budget := workers * int64(lm.Iterations+1); n > budget {
		t.Errorf("LM: %d calls for %d CG iterations, budget %d (1 per worker per iteration + the initial gradient)", n, lm.Iterations, budget)
	}

	x, y = data.Classification(2, 200, 8, 0.02)
	fx = federate(t, cl, x)
	var svm *algo.L2SVMResult
	n = calls(func() { svm, err = algo.L2SVM(fx, y, algo.L2SVMConfig{MaxIterations: 10}) })
	must(err)
	if budget := workers * int64(2*svm.Iterations+1); n > budget {
		t.Errorf("L2SVM: %d calls for %d outer iterations, budget %d (2 per worker per iteration + the initial gradient)", n, svm.Iterations, budget)
	}

	// MLogReg: per Newton step one call for the gradient, P - Y made at the
	// workers, and one per CG step for all classes together — so the count
	// does not grow with the number of classes. The one-hot Y rides with
	// the first gradient read.
	cfg := algo.MLogRegConfig{MaxOuterIter: 3, MaxInnerIter: 5}
	var mlrCalls []int64
	for _, k := range []int{4, 8} {
		x, y = data.MultiClass(4, 200, 8, k)
		fx = federate(t, cl, x)
		var mlr *algo.MLogRegResult
		n = calls(func() { mlr, err = algo.MLogReg(fx, y, cfg) })
		must(err)
		if budget := workers * int64(mlr.OuterIters*(1+cfg.MaxInnerIter)); n > budget {
			t.Errorf("MLogReg, %d classes: %d calls for %d Newton steps, budget %d (1 + 1 per CG step per worker per Newton step)",
				k, n, mlr.OuterIters, budget)
		}
		mlrCalls = append(mlrCalls, n)
	}
	if mlrCalls[0] != mlrCalls[1] {
		t.Errorf("MLogReg: %d calls for 4 classes, %d for 8: a CG step should cost the same for any number of classes", mlrCalls[0], mlrCalls[1])
	}

	// K-Means: sum(P*D), colSums(P) and t(P) %*% X of a Lloyd step are
	// read together, with sum(X^2) when that is still pending.
	x, _ = data.Blobs(5, 200, 6, 4, 0.5)
	fx = federate(t, cl, x)
	n = calls(func() {
		defer engine.Guard(&err)
		algo.KMeansStep(fx, x.SliceRows(0, 4), engine.QueueAgg(matrix.AggSum, fx))
	})
	must(err)
	if budget := workers; n > budget {
		t.Errorf("K-Means: one Lloyd step cost %d calls, budget %d (1 per worker)", n, budget)
	}

	// A whole run of one step under PrivateAggregation: the refused row
	// sample at one worker carries that worker's share of sum(X^2), the
	// fallback's colMeans and colSDs take one call per worker, so does the
	// step.
	n = calls(func() { _, err = algo.KMeans(fx, algo.KMeansConfig{K: 4, MaxIterations: 1, Seed: 3}) })
	must(err)
	if budget := int64(5); n > budget {
		t.Errorf("K-Means: a one-step PrivateAggregation run cost %d calls on 2 workers, budget %d", n, budget)
	}

	var proj engine.Mat
	n = calls(func() { _, proj, err = algo.PCA(fx, algo.PCAConfig{K: 3}) })
	must(err)
	if budget := workers; n > budget {
		t.Errorf("PCA: %d calls, budget %d (1 per worker: t(X)X and colMeans together)", n, budget)
	}
	engine.Free(proj)
}
