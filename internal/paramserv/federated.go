package paramserv

import (
	"sync"

	"exdra/internal/federated"
	"exdra/internal/fedrpc"
	"exdra/internal/matrix"
	"exdra/internal/nn"
	"exdra/internal/worker"
)

// WireMat is a gob-friendly matrix for UDF argument payloads (the "model"
// lists the paper's paramserv passes around).
type WireMat struct {
	Rows, Cols int
	Data       []float64
}

func toWire(ms []*matrix.Dense) []WireMat {
	out := make([]WireMat, len(ms))
	for i, m := range ms {
		out[i] = WireMat{Rows: m.Rows(), Cols: m.Cols(), Data: m.Data()}
	}
	return out
}

func fromWire(ws []WireMat) []*matrix.Dense {
	out := make([]*matrix.Dense, len(ws))
	for i, w := range ws {
		out[i] = matrix.NewDenseData(w.Rows, w.Cols, w.Data)
	}
	return out
}

// SetupArgs configure a federated PS worker session (shipped once at
// setup, like the paper's serialized gradient/update functions).
type SetupArgs struct {
	Spec      nn.Spec
	Optimizer nn.OptimizerConfig
	BatchSize int
	Seed      int64
	// Replicate repeats the local partition to balance imbalance (§4.3).
	Replicate int
	// YID is the worker-local labels object paired with the features.
	YID int64
}

// RunArgs drive one synchronization segment at a worker.
type RunArgs struct {
	// Params is the broadcast global model.
	Params []WireMat
	// MaxBatches bounds the local batches before returning (0 = rest of
	// the epoch — the per-epoch synchronization of the paper's FFN/CNN
	// experiments).
	MaxBatches int
	// NewEpoch reshuffles the local data before running.
	NewEpoch bool
}

// RunReply is the worker's accrued result of one segment.
type RunReply struct {
	// Deltas is the accrued model update (local params minus broadcast
	// params) — an aggregate over the worker's batches; raw data never
	// leaves the site.
	Deltas  []WireMat
	Loss    float64
	Batches int
	// Done reports that the local epoch is exhausted.
	Done bool
}

// TrainFederated runs the federated parameter server over a
// row-partitioned federated feature matrix. Labels may live at the
// coordinator (passed via y and sliced per partition — the setting of the
// paper's experiments). The gradient and update logic ships to workers at
// setup as registered UDFs with gob-encoded arguments; each epoch the
// global model is broadcast, workers run local per-batch updates
// multi-threaded over their private partitions, and accrued deltas are
// aggregated BSP or ASP with imbalance-adjusted weights.
func TrainFederated(cfg Config, fx *federated.Matrix, y *matrix.Dense) (*Result, error) {
	t, err := NewFederatedTrainer(cfg, fx, y)
	if err != nil {
		return nil, err
	}
	if err := t.TrainEpochs(t.cfg.Epochs); err != nil {
		return nil, err
	}
	return t.Result(), nil
}

// runSegmentAt invokes ps_run at one worker and decodes the reply.
func runSegmentAt(coord *federated.Coordinator, p federated.Partition, stateID int64, args RunArgs) (RunReply, error) {
	enc, err := worker.EncodeArgs(args)
	if err != nil {
		return RunReply{}, err
	}
	data, err := coord.ExecUDF(p.Addr, &fedrpc.UDFCall{
		Name: "ps_run", Inputs: []int64{stateID}, Args: enc})
	if err != nil {
		return RunReply{}, err
	}
	var reply RunReply
	if err := worker.DecodeArgs(data.Bytes, &reply); err != nil {
		return RunReply{}, err
	}
	return reply, nil
}

func trainFedBSP(cfg Config, coord *federated.Coordinator, parts []federated.Partition,
	stateIDs []int64, weights []float64, srv *server, res *Result) error {
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		newEpoch := true
		done := make([]bool, len(parts))
		for {
			snap := toWire(srv.snapshot())
			replies := make([]RunReply, len(parts))
			errs := make([]error, len(parts))
			var wg sync.WaitGroup
			active := 0
			for i := range parts {
				if done[i] && !newEpoch {
					continue
				}
				active++
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					replies[i], errs[i] = runSegmentAt(coord, parts[i], stateIDs[i],
						RunArgs{Params: snap, MaxBatches: cfg.SyncEvery, NewEpoch: newEpoch})
				}(i)
			}
			if active == 0 {
				break
			}
			wg.Wait() // BSP barrier
			lossSum, batchSum := 0.0, 0
			for i := range parts {
				if done[i] && !newEpoch {
					continue
				}
				if errs[i] != nil {
					return errs[i]
				}
				srv.apply(fromWire(replies[i].Deltas), weights[i])
				lossSum += replies[i].Loss
				batchSum += replies[i].Batches
				done[i] = replies[i].Done
			}
			if batchSum > 0 {
				res.Losses = append(res.Losses, lossSum/float64(batchSum))
			}
			res.Syncs++
			newEpoch = false
			allDone := true
			for _, d := range done {
				if !d {
					allDone = false
				}
			}
			if allDone {
				break
			}
		}
	}
	return nil
}

func trainFedASP(cfg Config, coord *federated.Coordinator, parts []federated.Partition,
	stateIDs []int64, weights []float64, srv *server, res *Result) error {
	var mu sync.Mutex
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for epoch := 0; epoch < cfg.Epochs; epoch++ {
				newEpoch := true
				for {
					mu.Lock()
					snap := toWire(srv.snapshot())
					mu.Unlock()
					reply, err := runSegmentAt(coord, parts[i], stateIDs[i],
						RunArgs{Params: snap, MaxBatches: cfg.SyncEvery, NewEpoch: newEpoch})
					if err != nil {
						errs[i] = err
						return
					}
					newEpoch = false
					mu.Lock()
					srv.apply(fromWire(reply.Deltas), weights[i])
					if reply.Batches > 0 {
						res.Losses = append(res.Losses, reply.Loss/float64(reply.Batches))
					}
					res.Syncs++
					mu.Unlock()
					if reply.Done {
						break
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
