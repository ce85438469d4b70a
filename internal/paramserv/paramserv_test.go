package paramserv_test

import (
	"errors"
	"testing"

	"exdra/internal/data"
	"exdra/internal/federated"
	"exdra/internal/fedtest"
	"exdra/internal/matrix"
	"exdra/internal/nn"
	"exdra/internal/paramserv"
	"exdra/internal/privacy"
)

func ffnCfg(in, classes int, ut paramserv.UpdateType) paramserv.Config {
	return paramserv.Config{
		Spec:       nn.FFNSpec(in, 24, classes, nn.LossSoftmaxCE),
		Optimizer:  nn.OptimizerConfig{Kind: "nesterov", LR: 0.05, Mu: 0.9},
		UpdateType: ut,
		Epochs:     8,
		BatchSize:  32,
		Seed:       11,
	}
}

func TestTrainLocalBSPLearns(t *testing.T) {
	x, y := data.MultiClass(20, 600, 10, 3)
	res, err := paramserv.TrainLocal(ffnCfg(10, 3, paramserv.BSP), x, y, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Syncs == 0 || len(res.Losses) == 0 {
		t.Fatal("no synchronizations recorded")
	}
	if res.Losses[len(res.Losses)-1] >= res.Losses[0] {
		t.Fatalf("loss did not decrease: %v", res.Losses)
	}
	if acc := res.Network.Accuracy(x, y); acc < 0.9 {
		t.Fatalf("BSP accuracy %g", acc)
	}
}

func TestTrainLocalASPLearns(t *testing.T) {
	x, y := data.MultiClass(21, 600, 10, 3)
	res, err := paramserv.TrainLocal(ffnCfg(10, 3, paramserv.ASP), x, y, 4)
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Network.Accuracy(x, y); acc < 0.85 {
		t.Fatalf("ASP accuracy %g", acc)
	}
}

func TestTrainLocalSyncEvery(t *testing.T) {
	x, y := data.MultiClass(22, 300, 8, 2)
	cfg := ffnCfg(8, 2, paramserv.BSP)
	cfg.Epochs = 2
	cfg.SyncEvery = 1 // per-batch global updates (freq=BATCH)
	res, err := paramserv.TrainLocal(cfg, x, y, 3)
	if err != nil {
		t.Fatal(err)
	}
	// freq=BATCH must sync far more often than freq=EPOCH.
	cfg.SyncEvery = 0
	resEpoch, err := paramserv.TrainLocal(cfg, x, y, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Syncs <= resEpoch.Syncs {
		t.Fatalf("freq=BATCH syncs %d <= freq=EPOCH syncs %d", res.Syncs, resEpoch.Syncs)
	}
}

func TestTrainFederatedBSP(t *testing.T) {
	cl, err := fedtest.Start(fedtest.Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	x, y := data.MultiClass(23, 450, 10, 3)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Private)
	if err != nil {
		t.Fatal(err)
	}
	res, err := paramserv.TrainFederated(ffnCfg(10, 3, paramserv.BSP), fx, y)
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Network.Accuracy(x, y); acc < 0.9 {
		t.Fatalf("federated BSP accuracy %g", acc)
	}
	// Training must succeed even though the raw partitions are Private:
	// only model deltas were exchanged.
	if _, err := fx.Consolidate(); err == nil {
		t.Fatal("private features are transferable")
	}
}

// TestPSRunGoesThroughFunnel: ps_run goes through the coordinator's failure
// funnel like every other operation, so a worker that restarted under the
// trainer is diagnosed as a restart, not as an "unknown object" reply. A
// segment is not retry-safe, so it is never re-issued: the first one after
// the restart meets the dead connection and fails as a transport error, and
// the next reaches the new process.
func TestPSRunGoesThroughFunnel(t *testing.T) {
	cl, err := fedtest.Start(fedtest.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	x, y := data.MultiClass(24, 200, 8, 2)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Private)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := paramserv.NewFederatedTrainer(ffnCfg(8, 2, paramserv.BSP), fx, y)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.RestartWorker(0); err != nil {
		t.Fatal(err)
	}
	if err := tr.TrainEpochs(1); err == nil {
		t.Fatal("TrainEpochs over the restarted worker's dead connection succeeded")
	}
	if err := tr.TrainEpochs(1); !errors.Is(err, federated.ErrWorkerRestarted) {
		t.Fatalf("TrainEpochs after worker 0 restarted = %v, want ErrWorkerRestarted", err)
	}
}

func TestTrainFederatedASP(t *testing.T) {
	cl, err := fedtest.Start(fedtest.Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	x, y := data.MultiClass(24, 450, 10, 3)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Private)
	if err != nil {
		t.Fatal(err)
	}
	res, err := paramserv.TrainFederated(ffnCfg(10, 3, paramserv.ASP), fx, y)
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Network.Accuracy(x, y); acc < 0.85 {
		t.Fatalf("federated ASP accuracy %g", acc)
	}
}

func TestImbalanceReplicationWeights(t *testing.T) {
	cl, err := fedtest.Start(fedtest.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	x, y := data.MultiClass(25, 400, 8, 2)
	// Build a deliberately imbalanced federation: 90% / 10%.
	big, err := federated.Distribute(cl.Coord, x.SliceRows(0, 360), cl.Addrs[:1], federated.RowPartitioned, privacy.Private)
	if err != nil {
		t.Fatal(err)
	}
	small, err := federated.Distribute(cl.Coord, x.SliceRows(360, 400), cl.Addrs[1:], federated.RowPartitioned, privacy.Private)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := federated.RBindFed(big, small)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ffnCfg(8, 2, paramserv.BSP)
	cfg.Balance = true
	cfg.Epochs = 4
	res, err := paramserv.TrainFederated(cfg, fx, y)
	if err != nil {
		t.Fatal(err)
	}
	if acc := res.Network.Accuracy(x, y); acc < 0.85 {
		t.Fatalf("imbalanced federated accuracy %g", acc)
	}
}

func TestFederatedCNNOnSyntheticMNIST(t *testing.T) {
	cl, err := fedtest.Start(fedtest.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	x, y := data.SyntheticMNIST(26, 120)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Private)
	if err != nil {
		t.Fatal(err)
	}
	cfg := paramserv.Config{
		Spec:      nn.CNNSpec(1, 28, 28, 4, 10),
		Optimizer: nn.OptimizerConfig{Kind: "sgd", LR: 0.05},
		Epochs:    2,
		BatchSize: 32,
		Seed:      5,
	}
	res, err := paramserv.TrainFederated(cfg, fx, y)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Losses) < 2 || res.Losses[len(res.Losses)-1] >= res.Losses[0] {
		t.Fatalf("CNN loss did not decrease: %v", res.Losses)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := paramserv.TrainLocal(paramserv.Config{Spec: nn.FFNSpec(2, 2, 2, nn.LossSoftmaxCE)},
		matrix.NewDense(0, 2), matrix.NewDense(0, 1), 2); err == nil {
		t.Fatal("empty data accepted")
	}
	// Column-partitioned federated data rejected.
	cl, err := fedtest.Start(fedtest.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	x, y := data.MultiClass(27, 40, 6, 2)
	fx, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.ColPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := paramserv.TrainFederated(ffnCfg(6, 2, paramserv.BSP), fx, y); err == nil {
		t.Fatal("column-partitioned features accepted")
	}
	// Label/row mismatch rejected.
	fr, err := federated.Distribute(cl.Coord, x, cl.Addrs, federated.RowPartitioned, privacy.Public)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := paramserv.TrainFederated(ffnCfg(6, 2, paramserv.BSP), fr, y.SliceRows(0, 10)); err == nil {
		t.Fatal("label mismatch accepted")
	}
}
