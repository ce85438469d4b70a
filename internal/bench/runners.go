package bench

import (
	"fmt"
	"time"

	"exdra/internal/algo"
	"exdra/internal/data"
	"exdra/internal/engine"
	"exdra/internal/federated"
	"exdra/internal/fedtest"
	"exdra/internal/matrix"
	"exdra/internal/nn"
	"exdra/internal/obs"
	"exdra/internal/paramserv"
	"exdra/internal/pipeline"
	"exdra/internal/privacy"
)

// Workloads holds the synthetic datasets of §6.1, generated once per scale.
type Workloads struct {
	Scale Scale
	// Regression features/targets (LM).
	XReg, YReg *matrix.Dense
	// Binary classification (L2SVM, labels ±1).
	XCls, YCls *matrix.Dense
	// Multi-class (MLogReg, FFN; 1-based labels, 4 classes).
	XMC, YMC *matrix.Dense
	// Clustering blobs (K-Means, PCA).
	XBlobs *matrix.Dense
	// MNIST-shaped images (CNN).
	XMNIST, YMNIST *matrix.Dense
}

// NewWorkloads generates all datasets for a scale.
func NewWorkloads(sc Scale) *Workloads {
	w := &Workloads{Scale: sc}
	w.XReg, w.YReg = data.Regression(sc.Seed, sc.Rows, sc.Cols, 0.05)
	w.XCls, w.YCls = data.Classification(sc.Seed+1, sc.Rows, sc.Cols, 0.01)
	w.XMC, w.YMC = data.MultiClass(sc.Seed+2, sc.Rows, sc.Cols, 4)
	w.XBlobs, _ = data.Blobs(sc.Seed+3, sc.Rows, sc.Cols, sc.KMeansK, 1)
	w.XMNIST, w.YMNIST = data.SyntheticMNIST(sc.Seed+4, sc.CNNRows)
	return w
}

// AlgorithmNames lists the Figure 5 workloads in paper order.
var AlgorithmNames = []string{"lm", "l2svm", "mlogreg", "kmeans", "pca", "ffn", "cnn"}

// featuresFor returns the feature matrix an algorithm trains on.
func (w *Workloads) featuresFor(name string) *matrix.Dense {
	switch name {
	case "lm":
		return w.XReg
	case "l2svm":
		return w.XCls
	case "mlogreg", "ffn":
		return w.XMC
	case "kmeans", "pca":
		return w.XBlobs
	case "cnn":
		return w.XMNIST
	default:
		return nil
	}
}

// RunAlgorithm executes one Figure 5 workload in the given environment,
// returning the timed measurement. The cluster (nil for Local) is reused
// across runs so connection setup is not measured; distribution of the
// synthetic data to the workers happens before the timer starts, standing
// in for the paper's pre-partitioned federated files.
func (w *Workloads) RunAlgorithm(name string, env Env, cl *fedtest.Cluster) (Measurement, error) {
	xLocal := w.featuresFor(name)
	if xLocal == nil {
		return Measurement{}, fmt.Errorf("bench: unknown algorithm %q", name)
	}
	var x engine.Mat = xLocal
	var baseBytes int64
	if cl != nil {
		fx, err := federated.Distribute(cl.Coord, xLocal, cl.Addrs, federated.RowPartitioned, privacy.PrivateAggregation)
		if err != nil {
			return Measurement{}, err
		}
		x = fx
		baseBytes = cl.Coord.BytesSent()
		defer cl.Coord.ClearAll()
	}
	m := Measurement{Experiment: "fig5", Algorithm: name, Mode: env.Mode,
		Workers: env.Workers, Extra: map[string]float64{}}
	reg := runRegistry(cl)
	obsBase := reg.Snapshot()
	start := time.Now()
	var err error
	switch name {
	case "lm":
		var res *algo.LMResult
		res, err = algo.LM(x, w.YReg, algo.LMConfig{MaxIterations: 25})
		if err == nil {
			m.Extra["iters"] = float64(res.Iterations)
		}
	case "l2svm":
		var res *algo.L2SVMResult
		res, err = algo.L2SVM(x, w.YCls, algo.L2SVMConfig{MaxIterations: 15})
		if err == nil {
			m.Extra["iters"] = float64(res.Iterations)
		}
	case "mlogreg":
		var res *algo.MLogRegResult
		res, err = algo.MLogReg(x, w.YMC, algo.MLogRegConfig{MaxOuterIter: 3, MaxInnerIter: 5})
		if err == nil {
			m.Extra["iters"] = float64(res.InnerIters)
		}
	case "kmeans":
		var res *algo.KMeansResult
		res, err = algo.KMeans(x, algo.KMeansConfig{K: w.Scale.KMeansK, MaxIterations: 10, Seed: w.Scale.Seed})
		if err == nil {
			m.Extra["wcss"] = res.WCSS
		}
	case "pca":
		var proj engine.Mat
		_, proj, err = algo.PCA(x, algo.PCAConfig{K: w.Scale.PCAK})
		if err == nil {
			engine.Free(proj)
		}
	case "ffn":
		err = w.runPS(x, w.YMC, nn.FFNSpec(w.Scale.Cols, w.Scale.FFNHidden, 4, nn.LossSoftmaxCE),
			nn.OptimizerConfig{Kind: "nesterov", LR: 0.02, Mu: 0.9},
			w.Scale.FFNEpochs, w.Scale.FFNBatch, env, &m)
	case "cnn":
		err = w.runPS(x, w.YMNIST, nn.CNNSpec(1, 28, 28, w.Scale.CNNFilters, 10),
			nn.OptimizerConfig{Kind: "sgd", LR: 0.05},
			w.Scale.CNNEpochs, w.Scale.CNNBatch, env, &m)
	}
	if err != nil {
		return Measurement{}, fmt.Errorf("bench: %s on %s: %w", name, env.Mode, err)
	}
	m.Elapsed = time.Since(start)
	if cl != nil {
		// Communication during training only (the pre-distribution of the
		// synthetic data stands in for pre-existing federated files).
		m.Extra["mb_sent"] = float64(cl.Coord.BytesSent()-baseBytes) / 1e6
		foldObsDelta(&m, reg, obsBase)
	}
	return m, nil
}

// runRegistry resolves the registry a run's obs deltas are read from: the
// cluster's or, for a local run, the process default.
func runRegistry(cl *fedtest.Cluster) *obs.Registry {
	if cl != nil {
		return cl.Registry()
	}
	return obs.Default()
}

// runPS dispatches the parameter-server workloads (FFN, CNN): local
// multi-threaded mode for Local, federated mode otherwise.
func (w *Workloads) runPS(x engine.Mat, y *matrix.Dense, spec nn.Spec, opt nn.OptimizerConfig,
	epochs, batch int, env Env, m *Measurement) error {
	cfg := paramserv.Config{Spec: spec, Optimizer: opt, UpdateType: paramserv.BSP,
		Epochs: epochs, BatchSize: batch, Seed: w.Scale.Seed}
	var res *paramserv.Result
	var err error
	if fx, ok := x.(*federated.Matrix); ok {
		res, err = paramserv.TrainFederated(cfg, fx, y)
	} else {
		workers := env.Workers
		if workers <= 0 {
			workers = 4
		}
		res, err = paramserv.TrainLocal(cfg, x.(*matrix.Dense), y, workers)
	}
	if err != nil {
		return err
	}
	if len(res.Losses) > 0 {
		m.Extra["loss"] = res.Losses[len(res.Losses)-1]
	}
	return nil
}

// LMLowerBound estimates the Fed LowerBound series of Figure 5 for LM: the
// local execution time that is not subject to federated computation
// (everything except the per-iteration X kernels).
func (w *Workloads) LMLowerBound() (Measurement, error) {
	// Full local run.
	full, err := w.RunAlgorithm("lm", Env{Mode: Local}, nil)
	if err != nil {
		return Measurement{}, err
	}
	iters := int(full.Extra["iters"])
	// Time of the federated-offloadable kernels: the initial t(X)y and one
	// fused mmchain per iteration.
	v := matrix.NewDense(w.Scale.Cols, 1)
	start := time.Now()
	w.XReg.TMatMul(w.YReg)
	for i := 0; i < iters; i++ {
		w.XReg.MMChain(v, nil)
	}
	kernels := time.Since(start)
	lb := full.Elapsed - kernels
	if lb < 0 {
		lb = 0
	}
	return Measurement{Experiment: "fig5", Algorithm: "lm", Mode: "fed-lowerbound",
		Elapsed: lb, Extra: map[string]float64{}}, nil
}

// RunPipeline executes Figure 8's P2 pipeline (P2_LM or P2_FNN) in the
// given environment over the paper-production synthetic table.
func (w *Workloads) RunPipeline(trainAlgo string, env Env, cl *fedtest.Cluster) (Measurement, error) {
	full := data.PaperProduction(data.PaperProductionConfig{
		Rows:             w.Scale.PipeRows,
		ContinuousCols:   w.Scale.PipeSignals,
		RecipeCategories: w.Scale.PipeRecipes,
		NullRate:         0.01,
		Seed:             w.Scale.Seed,
	})
	fr, y, err := pipeline.SplitTarget(full, "zstrength")
	if err != nil {
		return Measurement{}, err
	}
	cfg := pipeline.P2Config{
		Spec: data.PaperProductionSpec(), TrainAlgo: trainAlgo,
		FFNHidden: w.Scale.FFNHidden, FFNEpochs: w.Scale.FFNEpochs,
		FFNBatch: w.Scale.FFNBatch, Seed: w.Scale.Seed,
	}
	m := Measurement{Experiment: "fig8", Algorithm: "P2_" + trainAlgo,
		Mode: env.Mode, Workers: env.Workers, Extra: map[string]float64{}}
	var res *pipeline.P2Result
	if cl == nil {
		start := time.Now()
		res, err = pipeline.RunP2Local(fr, y, cfg)
		m.Elapsed = time.Since(start)
	} else {
		ff, derr := federated.DistributeFrame(cl.Coord, fr, cl.Addrs, privacy.PrivateAggregation)
		if derr != nil {
			return Measurement{}, derr
		}
		defer cl.Coord.ClearAll()
		reg := runRegistry(cl)
		obsBase := reg.Snapshot()
		start := time.Now()
		res, err = pipeline.RunP2Federated(ff, y, fr.Names(), cfg)
		m.Elapsed = time.Since(start)
		foldObsDelta(&m, reg, obsBase)
	}
	if err != nil {
		return Measurement{}, err
	}
	m.Extra["r2"] = res.R2
	m.Extra["features"] = float64(res.Features)
	return m, nil
}
