// Package pipeline implements the end-to-end ML pipelines of the ExDRa
// evaluation (§6.3): the simplified paper-production training pipeline P2
// (transformencode -> value clipping -> normalization -> 70/30 split ->
// LM or FFN training -> evaluation) on local and on federated raw frames,
// and the fertilizer anomaly-detection pipeline (GMM ensembles over NES
// sink snapshots). Runs can be tracked in an ExperimentDB store.
package pipeline

import (
	"fmt"
	"time"

	"exdra/internal/algo"
	"exdra/internal/engine"
	"exdra/internal/expdb"
	"exdra/internal/federated"
	"exdra/internal/frame"
	"exdra/internal/matrix"
	"exdra/internal/nn"
	"exdra/internal/paramserv"
	"exdra/internal/transform"
)

// P2Config configures the P2 training pipeline.
type P2Config struct {
	// Spec is the transformencode specification for the raw frame.
	Spec transform.Spec
	// TrainAlgo selects "lm" (linear regression) or "ffn" (feed-forward
	// network via the parameter server) — P2_LM and P2_FNN in Figure 8.
	TrainAlgo string
	// TrainFrac is the training fraction of the 70/30 split (default 0.7).
	TrainFrac float64
	// ClipSigma is the clipping band around column means (default 1.5, the
	// paper's [-1.5σ, 1.5σ]).
	ClipSigma float64
	// FFN hyper-parameters (TrainAlgo "ffn").
	FFNHidden  int
	FFNEpochs  int
	FFNBatch   int
	FFNWorkers int // local-mode PS parallelism
	Seed       int64
	// Track records the run in an ExperimentDB store when non-nil.
	Track *expdb.Store
}

func (c *P2Config) defaults() {
	if c.TrainAlgo == "" {
		c.TrainAlgo = "lm"
	}
	if c.TrainFrac == 0 {
		c.TrainFrac = 0.7
	}
	if c.ClipSigma == 0 {
		c.ClipSigma = 1.5
	}
	if c.FFNHidden == 0 {
		c.FFNHidden = 64
	}
	if c.FFNEpochs == 0 {
		c.FFNEpochs = 5
	}
	if c.FFNBatch == 0 {
		c.FFNBatch = 512
	}
	if c.FFNWorkers == 0 {
		c.FFNWorkers = 3
	}
}

// P2Result reports a pipeline run.
type P2Result struct {
	// R2 is the coefficient of determination on the held-out test split.
	R2 float64
	// TrainRows / TestRows are the split sizes; Features the encoded width.
	TrainRows, TestRows, Features int
	// Meta is the global encoder metadata.
	Meta *transform.Meta
	// RunID is the tracked ExperimentDB run (empty when untracked).
	RunID string
}

// SplitTarget removes the named numeric column from a frame and returns it
// as the label vector — the labels stay at the coordinator, matching the
// experimental setup of §6.1.
func SplitTarget(fr *frame.Frame, target string) (*frame.Frame, *matrix.Dense, error) {
	tcol := fr.ColumnByName(target)
	if tcol == nil {
		return nil, nil, fmt.Errorf("pipeline: no target column %q", target)
	}
	y := matrix.NewDense(fr.NumRows(), 1)
	for i := 0; i < fr.NumRows(); i++ {
		v, err := tcol.AsFloat(i)
		if err != nil {
			return nil, nil, fmt.Errorf("pipeline: target %q: %w", target, err)
		}
		y.Set(i, 0, v)
	}
	cols := make([]*frame.Column, 0, fr.NumCols()-1)
	for j := 0; j < fr.NumCols(); j++ {
		if fr.Column(j).Name != target {
			cols = append(cols, fr.Column(j))
		}
	}
	rest, err := frame.New(cols...)
	if err != nil {
		return nil, nil, err
	}
	return rest, y, nil
}

// RunP2Local executes the pipeline on a local raw frame.
func RunP2Local(fr *frame.Frame, y *matrix.Dense, cfg P2Config) (*P2Result, error) {
	cfg.defaults()
	x, meta, err := transform.Encode(fr, cfg.Spec)
	if err != nil {
		return nil, err
	}
	ranges := []federated.Range{{RowBeg: 0, RowEnd: x.Rows(), ColBeg: 0, ColEnd: x.Cols()}}
	return runP2(x, y, meta, ranges, cfg, nil)
}

// RunP2Federated executes the pipeline on a federated raw frame without
// central data consolidation: encoding, clipping, normalization, and
// splitting all stay federated; only aggregates and the model reach the
// coordinator.
func RunP2Federated(ff *federated.Frame, y *matrix.Dense, colOrder []string, cfg P2Config) (*P2Result, error) {
	cfg.defaults()
	fx, meta, err := ff.TransformEncode(cfg.Spec, colOrder)
	if err != nil {
		return nil, err
	}
	var ranges []federated.Range
	for _, p := range fx.Map().Partitions {
		ranges = append(ranges, p.Range)
	}
	return runP2(fx, y, meta, ranges, cfg, fx)
}

// runP2 is the backend-agnostic body: x is local or federated; ranges
// describe the row partitions for the balanced split (one range = local).
func runP2(x engine.Mat, y *matrix.Dense, meta *transform.Meta,
	ranges []federated.Range, cfg P2Config, fed *federated.Matrix) (res *P2Result, err error) {
	defer engine.Guard(&err)
	start := time.Now()
	if y.Rows() != x.Rows() {
		return nil, fmt.Errorf("pipeline: %d labels for %d rows", y.Rows(), x.Rows())
	}

	// Value clipping to [mu - k*sigma, mu + k*sigma] per column. Means and
	// SDs share one exchange per worker.
	mh, sh := engine.QueueColAgg(matrix.AggMean, x), engine.QueueColAgg(matrix.AggSD, x)
	engine.Fetch(mh, sh)
	mu, sd := mh.Value(), sh.Value()
	lo := mu.Sub(sd.Scale(cfg.ClipSigma))
	hi := mu.Add(sd.Scale(cfg.ClipSigma))
	x = engine.Binary(matrix.OpMin, engine.Binary(matrix.OpMax, x, lo), hi)

	// Normalize to zero column means and unit standard deviations
	// (constant columns keep divisor one).
	mh, sh = engine.QueueColAgg(matrix.AggMean, x), engine.QueueColAgg(matrix.AggSD, x)
	engine.Fetch(mh, sh)
	mu2, sd2 := mh.Value(), sh.Value().Replace(0, 1)
	x = engine.Div(engine.Sub(x, mu2), sd2)

	// Balanced train/test split: each row partition is split TrainFrac
	// locally, so the training data keeps the same distribution across
	// federated workers (the role of the paper's uniformly sampled
	// selection-matrix multiply).
	xtr, xte, ytr, yte := splitBalanced(x, y, ranges, cfg.TrainFrac)

	var pred *matrix.Dense
	steps := []expdb.Step{{Name: "transformencode"}, {Name: "clip_scale"},
		{Name: "normalize_cols"}, {Name: "train_test_split"}}
	switch cfg.TrainAlgo {
	case "lm":
		model, err := algo.LM(xtr, ytr, algo.LMConfig{})
		if err != nil {
			return nil, err
		}
		pred, err = model.Predict(xte)
		if err != nil {
			return nil, err
		}
		steps = append(steps, expdb.Step{Name: "lm_train"})
	case "ffn":
		psCfg := paramserv.Config{
			Spec:      nn.FFNSpec(x.Cols(), cfg.FFNHidden, 1, nn.LossMSE),
			Optimizer: nn.OptimizerConfig{Kind: "nesterov", LR: 0.005, Mu: 0.9},
			Epochs:    cfg.FFNEpochs,
			BatchSize: cfg.FFNBatch,
			Seed:      cfg.Seed,
		}
		var r *paramserv.Result
		var terr error
		if ftr, ok := xtr.(*federated.Matrix); ok {
			r, terr = paramserv.TrainFederated(psCfg, ftr, ytr)
		} else {
			r, terr = paramserv.TrainLocal(psCfg, xtr.(*matrix.Dense), ytr, cfg.FFNWorkers)
		}
		if terr != nil {
			return nil, terr
		}
		pred = forwardFFN(r.Network, xte)
		steps = append(steps, expdb.Step{Name: "ffn_train"})
	default:
		return nil, fmt.Errorf("pipeline: unknown training algorithm %q", cfg.TrainAlgo)
	}

	res = &P2Result{
		R2:        algo.R2(pred, yte),
		TrainRows: xtr.Rows(),
		TestRows:  xte.Rows(),
		Features:  x.Cols(),
		Meta:      meta,
	}
	if cfg.Track != nil {
		mode := "local"
		if fed != nil {
			mode = "federated"
		}
		id, terr := cfg.Track.Track(&expdb.Run{
			PipelineID: "P2_" + cfg.TrainAlgo,
			Steps:      steps,
			Params:     map[string]string{"mode": mode, "algo": cfg.TrainAlgo},
			DataStats:  map[string]float64{"rows": float64(x.Rows()), "cols": float64(x.Cols())},
			Metrics:    map[string]float64{"r2": res.R2},
			StartedAt:  start,
			Duration:   time.Since(start),
		})
		if terr != nil {
			return nil, terr
		}
		res.RunID = id
	}
	return res, nil
}

// forwardFFN scores a trained affine/ReLU network through the engine
// dispatch layer, so the forward pass over federated test data pushes down
// to the workers (deployed federated scoring, §2.3) and only the aggregate
// predictions reach the coordinator.
func forwardFFN(net *nn.Network, x engine.Mat) *matrix.Dense {
	params := net.Params()
	pi := 0
	cur := x
	for _, ls := range net.Spec.Layers {
		switch ls.Kind {
		case nn.KindAffine:
			w, b := params[pi], params[pi+1]
			pi += 2
			cur = engine.Binary(matrix.OpAdd, engine.MatMul(cur, w), b)
		case nn.KindReLU:
			cur = engine.BinaryScalar(matrix.OpMax, cur, 0, false)
		default:
			// Conv/pool layers have no federated push-down; consolidate.
			return net.Forward(engine.Local(x))
		}
	}
	return engine.Local(cur)
}

// splitBalanced splits every row partition TrainFrac/1-TrainFrac and
// stitches the parts back together (metadata-only rbind for federated
// inputs), keeping labels aligned at the coordinator.
func splitBalanced(x engine.Mat, y *matrix.Dense, ranges []federated.Range, frac float64) (xtr, xte engine.Mat, ytr, yte *matrix.Dense) {
	var trainParts, testParts []engine.Mat
	var trainIdx, testIdx []int
	for _, r := range ranges {
		n := r.RowEnd - r.RowBeg
		k := int(float64(n) * frac)
		trainParts = append(trainParts, engine.Slice(x, r.RowBeg, r.RowBeg+k, 0, x.Cols()))
		testParts = append(testParts, engine.Slice(x, r.RowBeg+k, r.RowEnd, 0, x.Cols()))
		for i := r.RowBeg; i < r.RowBeg+k; i++ {
			trainIdx = append(trainIdx, i)
		}
		for i := r.RowBeg + k; i < r.RowEnd; i++ {
			testIdx = append(testIdx, i)
		}
	}
	xtr = concatParts(trainParts)
	xte = concatParts(testParts)
	return xtr, xte, y.SelectRows(trainIdx), y.SelectRows(testIdx)
}

func concatParts(parts []engine.Mat) engine.Mat {
	if len(parts) == 1 {
		return parts[0]
	}
	if f0, ok := parts[0].(*federated.Matrix); ok {
		out := f0
		for _, p := range parts[1:] {
			var err error
			out, err = federated.RBindFed(out, p.(*federated.Matrix))
			if err != nil {
				engine.Fail(err)
			}
		}
		return out
	}
	ms := make([]*matrix.Dense, len(parts))
	for i, p := range parts {
		ms[i] = p.(*matrix.Dense)
	}
	return matrix.RBind(ms...)
}
