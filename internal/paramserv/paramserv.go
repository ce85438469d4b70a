// Package paramserv implements the data-parallel parameter server of ExDRa
// §4.3 in both its local multi-threaded and its federated mode. A central
// server holds the model; workers iterate mini-batches over disjoint data
// partitions with local per-batch updates and push accrued model deltas to
// the server for aggregation — synchronously (BSP) or asynchronously (ASP),
// at a configurable frequency (per epoch or every N batches). The federated
// mode respects data locality (only local shuffling and replication of the
// private partitions) and handles imbalance via replication with adjusted
// aggregation weights.
package paramserv

import (
	"fmt"
	"math/rand"

	"exdra/internal/matrix"
	"exdra/internal/nn"
)

// UpdateType selects the synchronization strategy.
type UpdateType int

// Update strategies (paper §4.3: utype=BSP|ASP).
const (
	// BSP is bulk-synchronous parallel: the server waits for all workers
	// at every synchronization point.
	BSP UpdateType = iota
	// ASP is asynchronous parallel: each worker's delta is applied as soon
	// as it arrives.
	ASP
)

// Config mirrors the paramserv built-in function's arguments.
type Config struct {
	// Spec is the network architecture (the "model" list of weight/bias
	// matrices plus its wiring).
	Spec nn.Spec
	// Optimizer is the local update rule applied per mini-batch.
	Optimizer nn.OptimizerConfig
	// UpdateType is BSP or ASP.
	UpdateType UpdateType
	// Epochs over the (replicated) local data.
	Epochs int
	// BatchSize of local mini-batch updates (paper: 512 FFN, 128 CNN).
	BatchSize int
	// SyncEvery is the number of local batches between global
	// synchronizations; 0 synchronizes once per epoch (freq=EPOCH).
	SyncEvery int
	// Seed controls initialization and local shuffling.
	Seed int64
	// Balance replicates smaller partitions to the size of the largest
	// and adjusts aggregation weights (paper's imbalance handling).
	Balance bool
}

func (c *Config) defaults() {
	if c.Epochs == 0 {
		c.Epochs = 5
	}
	if c.BatchSize == 0 {
		c.BatchSize = 512
	}
	if c.Optimizer.LR == 0 {
		c.Optimizer.LR = 0.01
	}
}

// Result reports a finished training run.
type Result struct {
	Network *nn.Network
	// Losses is the mean training loss reported at each synchronization.
	Losses []float64
	// Syncs is the number of global model synchronizations.
	Syncs int
}

// server aggregates worker deltas into the global model.
type server struct {
	params []*matrix.Dense
}

func newServer(spec nn.Spec, seed int64) (*server, *nn.Network, error) {
	net, err := nn.NewNetwork(spec, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, nil, err
	}
	return &server{params: net.Params()}, net, nil
}

// apply adds weight * delta into the global model.
func (s *server) apply(delta []*matrix.Dense, weight float64) {
	for i, d := range delta {
		s.params[i].AxpyInPlace(weight, d)
	}
}

// snapshot deep-copies the global model for broadcast.
func (s *server) snapshot() []*matrix.Dense {
	out := make([]*matrix.Dense, len(s.params))
	for i, p := range s.params {
		out[i] = p.Clone()
	}
	return out
}

// deltas computes local - base parameter differences.
func deltas(local, base []*matrix.Dense) []*matrix.Dense {
	out := make([]*matrix.Dense, len(local))
	for i := range local {
		d := local[i].Clone()
		d.AxpyInPlace(-1, base[i])
		out[i] = d
	}
	return out
}

// replication returns per-partition replication factors and aggregation
// weights for the given partition sizes: without balancing, factors are 1
// and weights proportional to size; with balancing, small partitions
// replicate up to the largest and weights stay proportional to the
// original sizes (replication must not inflate a site's influence).
func replication(sizes []int, balance bool) (factors []int, weights []float64) {
	factors = make([]int, len(sizes))
	weights = make([]float64, len(sizes))
	total := 0
	maxSize := 0
	for _, s := range sizes {
		total += s
		if s > maxSize {
			maxSize = s
		}
	}
	for i, s := range sizes {
		factors[i] = 1
		if balance && s > 0 {
			factors[i] = (maxSize + s - 1) / s
		}
		weights[i] = float64(s) / float64(total)
	}
	return factors, weights
}

// localShuffle returns a replicated, shuffled index sequence over n rows.
func localShuffle(rng *rand.Rand, n, replicate int) []int {
	idx := make([]int, 0, n*replicate)
	for r := 0; r < replicate; r++ {
		idx = append(idx, rng.Perm(n)...)
	}
	return idx
}

// runBatches performs mini-batch updates over rows idx[from:to) of (x, y),
// returning the summed loss and the number of batches run.
func runBatches(net *nn.Network, opt nn.Optimizer, x, y *matrix.Dense, idx []int, from, to, batchSize int) (lossSum float64, batches int) {
	for b := from; b < to; b += batchSize {
		e := b + batchSize
		if e > to {
			e = to
		}
		bx := x.SelectRows(idx[b:e])
		by := y.SelectRows(idx[b:e])
		lossSum += net.Loss(bx, by)
		opt.Step(net.Params(), net.Grads())
		batches++
	}
	return lossSum, batches
}

func validate(cfg *Config, rows int) error {
	cfg.defaults()
	if rows == 0 {
		return fmt.Errorf("paramserv: empty training data")
	}
	if cfg.BatchSize <= 0 || cfg.Epochs <= 0 {
		return fmt.Errorf("paramserv: invalid batch size or epochs")
	}
	return nil
}
