package paramserv

import (
	"fmt"

	"exdra/internal/federated"
	"exdra/internal/fedrpc"
	"exdra/internal/matrix"
	"exdra/internal/nn"
	"exdra/internal/worker"
)

// FederatedTrainer is the stateful variant of TrainFederated for streaming
// deployments (§5.1): training proceeds epoch by epoch, and between epochs
// the session can be re-bound to each site's current data snapshot —
// "federated workers can seamlessly handle the removal or append of new
// batches according to the configured retention periods. However, changing
// data sizes require coordination to obtain imbalance ratios for
// replication and weight adjustments."
type FederatedTrainer struct {
	cfg      Config
	coord    *federated.Coordinator
	parts    []federated.Partition
	stateIDs []int64
	weights  []float64
	srv      *server
	net      *nn.Network
	res      *Result
}

// NewFederatedTrainer sets up PS sessions at the workers of a
// row-partitioned federated feature matrix with coordinator-held labels.
func NewFederatedTrainer(cfg Config, fx *federated.Matrix, y *matrix.Dense) (*FederatedTrainer, error) {
	if err := validate(&cfg, fx.Rows()); err != nil {
		return nil, err
	}
	if fx.Scheme() != federated.RowPartitioned {
		return nil, fmt.Errorf("paramserv: federated training requires row-partitioned features")
	}
	if y.Rows() != fx.Rows() {
		return nil, fmt.Errorf("paramserv: %d labels for %d rows", y.Rows(), fx.Rows())
	}
	coord := fx.Coordinator()
	parts := fx.Map().Partitions
	srv, net, err := newServer(cfg.Spec, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &FederatedTrainer{cfg: cfg, coord: coord, parts: parts,
		srv: srv, net: net, res: &Result{Network: net}}
	if err := t.setup(fx, y); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *FederatedTrainer) setup(fx *federated.Matrix, y *matrix.Dense) error {
	sizes := partitionSizes(t.parts)
	factors, weights := replication(sizes, t.cfg.Balance)
	t.weights = weights
	t.stateIDs = make([]int64, len(t.parts))
	for i, p := range t.parts {
		yid := t.coord.NewID()
		t.stateIDs[i] = t.coord.NewID()
		args, err := worker.EncodeArgs(SetupArgs{
			Spec:      t.cfg.Spec,
			Optimizer: t.cfg.Optimizer,
			BatchSize: t.cfg.BatchSize,
			Seed:      t.cfg.Seed + int64(i) + 1,
			Replicate: factors[i],
			YID:       yid,
		})
		if err != nil {
			return err
		}
		resps, err := t.coord.Call(p.Addr,
			fedrpc.Request{Type: fedrpc.Put, ID: yid,
				Data: fedrpc.MatrixPayload(y.SliceRows(p.Range.RowBeg, p.Range.RowEnd))},
			fedrpc.Request{Type: fedrpc.ExecUDF, UDF: &fedrpc.UDFCall{
				Name: "ps_setup", Inputs: []int64{p.DataID}, Output: t.stateIDs[i], Args: args}},
		)
		if err != nil {
			return err
		}
		for _, r := range resps {
			if !r.OK {
				return fmt.Errorf("paramserv: setup at %s: %s", p.Addr, r.Err)
			}
		}
	}
	return nil
}

func partitionSizes(parts []federated.Partition) []int {
	sizes := make([]int, len(parts))
	for i, p := range parts {
		sizes[i] = p.Range.NumRows()
	}
	return sizes
}

// TrainEpochs runs n epochs (BSP or ASP per the config) against the
// currently bound data.
func (t *FederatedTrainer) TrainEpochs(n int) error {
	cfg := t.cfg
	cfg.Epochs = n
	if cfg.UpdateType == ASP {
		return trainFedASP(cfg, t.coord, t.parts, t.stateIDs, t.weights, t.srv, t.res)
	}
	return trainFedBSP(cfg, t.coord, t.parts, t.stateIDs, t.weights, t.srv, t.res)
}

// Refresh re-binds every worker session to the new snapshot (same sites,
// possibly different row counts — e.g. after a retention window slid),
// re-coordinating imbalance ratios and aggregation weights from the new
// partition sizes.
func (t *FederatedTrainer) Refresh(fx *federated.Matrix, y *matrix.Dense) error {
	if fx.Scheme() != federated.RowPartitioned {
		return fmt.Errorf("paramserv: refresh requires row-partitioned features")
	}
	parts := fx.Map().Partitions
	if len(parts) != len(t.parts) {
		return fmt.Errorf("paramserv: refresh with %d partitions, trained with %d", len(parts), len(t.parts))
	}
	for i := range parts {
		if parts[i].Addr != t.parts[i].Addr {
			return fmt.Errorf("paramserv: refresh partition %d moved from %s to %s",
				i, t.parts[i].Addr, parts[i].Addr)
		}
	}
	if y.Rows() != fx.Rows() {
		return fmt.Errorf("paramserv: %d labels for %d rows", y.Rows(), fx.Rows())
	}
	sizes := partitionSizes(parts)
	factors, weights := replication(sizes, t.cfg.Balance)
	t.weights = weights
	for i, p := range parts {
		yid := t.coord.NewID()
		args, err := worker.EncodeArgs(RefreshArgs{
			XID: p.DataID, YID: yid, Replicate: factors[i],
		})
		if err != nil {
			return err
		}
		resps, err := t.coord.Call(p.Addr,
			fedrpc.Request{Type: fedrpc.Put, ID: yid,
				Data: fedrpc.MatrixPayload(y.SliceRows(p.Range.RowBeg, p.Range.RowEnd))},
			fedrpc.Request{Type: fedrpc.ExecUDF, UDF: &fedrpc.UDFCall{
				Name: "ps_refresh", Inputs: []int64{t.stateIDs[i]}, Args: args}},
		)
		if err != nil {
			return err
		}
		for _, r := range resps {
			if !r.OK {
				return fmt.Errorf("paramserv: refresh at %s: %s", p.Addr, r.Err)
			}
		}
	}
	t.parts = parts
	return nil
}

// Result returns the training state (the network tracks the live global
// model).
func (t *FederatedTrainer) Result() *Result { return t.res }
