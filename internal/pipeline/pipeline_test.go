package pipeline_test

import (
	"math"
	"testing"

	"exdra/internal/data"
	"exdra/internal/expdb"
	"exdra/internal/federated"
	"exdra/internal/fedtest"
	"exdra/internal/matrix"
	"exdra/internal/nes"
	"exdra/internal/obs"
	"exdra/internal/pipeline"
	"exdra/internal/privacy"
)

func TestSplitTarget(t *testing.T) {
	full := data.PaperProduction(data.PaperProductionConfig{Rows: 50, ContinuousCols: 3, Seed: 1})
	fr, y, err := pipeline.SplitTarget(full, "zstrength")
	if err != nil {
		t.Fatal(err)
	}
	if fr.NumCols() != full.NumCols()-1 || y.Rows() != 50 {
		t.Fatal("split target shape")
	}
	if fr.ColumnByName("zstrength") != nil {
		t.Fatal("target still present")
	}
	if _, _, err := pipeline.SplitTarget(full, "missing"); err == nil {
		t.Fatal("missing target accepted")
	}
}

func TestP2LocalLM(t *testing.T) {
	full := data.PaperProduction(data.PaperProductionConfig{
		Rows: 800, ContinuousCols: 10, RecipeCategories: 20, NullRate: 0.02, Seed: 3})
	fr, y, err := pipeline.SplitTarget(full, "zstrength")
	if err != nil {
		t.Fatal(err)
	}
	store, _ := expdb.Open("")
	res, err := pipeline.RunP2Local(fr, y, pipeline.P2Config{
		Spec: data.PaperProductionSpec(), TrainAlgo: "lm", Track: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.R2 < 0.8 {
		t.Fatalf("P2_LM test R2 = %g", res.R2)
	}
	if res.TrainRows+res.TestRows != 800 {
		t.Fatal("split row count")
	}
	if math.Abs(float64(res.TrainRows)-0.7*800) > 2 {
		t.Fatalf("train fraction: %d", res.TrainRows)
	}
	if store.Len() != 1 || res.RunID == "" {
		t.Fatal("run not tracked")
	}
	run, _ := store.Get(res.RunID)
	if run.Metrics["r2"] != res.R2 || run.Steps[0].Type != expdb.Transformer {
		t.Fatal("tracked run content")
	}
}

func TestP2FederatedMatchesLocal(t *testing.T) {
	cl, err := fedtest.Start(fedtest.Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	full := data.PaperProduction(data.PaperProductionConfig{
		Rows: 600, ContinuousCols: 8, RecipeCategories: 15, NullRate: 0.02, Seed: 4})
	fr, y, err := pipeline.SplitTarget(full, "zstrength")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.P2Config{Spec: data.PaperProductionSpec(), TrainAlgo: "lm"}
	local, err := pipeline.RunP2Local(fr, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ff, err := federated.DistributeFrame(cl.Coord, fr, cl.Addrs, privacy.PrivateAggregation)
	if err != nil {
		t.Fatal(err)
	}
	fed, err := pipeline.RunP2Federated(ff, y, fr.Names(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fed.Features != local.Features {
		t.Fatalf("encoded width local %d fed %d", local.Features, fed.Features)
	}
	// The federated split draws per-partition prefixes rather than the
	// single global prefix of the local path, so R2 differs slightly; both
	// must hit the same quality band.
	if fed.R2 < 0.8 {
		t.Fatalf("P2 federated R2 = %g (local %g)", fed.R2, local.R2)
	}
}

// TestP2FederatedCallCount pins how many RPCs a seeded 2-worker P2 run
// costs, so a read that stops sharing an exchange shows as a count change
// without a timing in sight. Each column-statistics pair (means and SDs,
// before clipping and again before normalizing) rides one exchange per
// worker.
func TestP2FederatedCallCount(t *testing.T) {
	reg := obs.New()
	cl, err := fedtest.Start(fedtest.Config{Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	full := data.PaperProduction(data.PaperProductionConfig{
		Rows: 400, ContinuousCols: 6, RecipeCategories: 10, NullRate: 0.02, Seed: 8})
	fr, y, err := pipeline.SplitTarget(full, "zstrength")
	if err != nil {
		t.Fatal(err)
	}
	ff, err := federated.DistributeFrame(cl.Coord, fr, cl.Addrs, privacy.PrivateAggregation)
	if err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot()
	if _, err := pipeline.RunP2Federated(ff, y, fr.Names(), pipeline.P2Config{
		Spec: data.PaperProductionSpec(), TrainAlgo: "lm"}); err != nil {
		t.Fatal(err)
	}
	const want = 46
	if got := reg.Snapshot().Diff(before).Counters["rpc.client.calls"]; got != want {
		t.Errorf("RunP2Federated on 2 workers: %d rpc.client.calls, want %d", got, want)
	}
}

func TestP2FederatedFFN(t *testing.T) {
	cl, err := fedtest.Start(fedtest.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	full := data.PaperProduction(data.PaperProductionConfig{
		Rows: 400, ContinuousCols: 6, RecipeCategories: 10, Seed: 5})
	fr, y, err := pipeline.SplitTarget(full, "zstrength")
	if err != nil {
		t.Fatal(err)
	}
	ff, err := federated.DistributeFrame(cl.Coord, fr, cl.Addrs, privacy.PrivateAggregation)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.RunP2Federated(ff, y, fr.Names(), pipeline.P2Config{
		Spec: data.PaperProductionSpec(), TrainAlgo: "ffn",
		FFNHidden: 16, FFNEpochs: 10, FFNBatch: 32, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.R2 < 0.4 {
		t.Fatalf("P2_FFN federated R2 = %g", res.R2)
	}
}

func TestP2UnknownAlgo(t *testing.T) {
	full := data.PaperProduction(data.PaperProductionConfig{Rows: 60, ContinuousCols: 3, Seed: 7})
	fr, y, err := pipeline.SplitTarget(full, "zstrength")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipeline.RunP2Local(fr, y, pipeline.P2Config{
		Spec: data.PaperProductionSpec(), TrainAlgo: "nope"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestFertilizerAnomalyPipeline(t *testing.T) {
	// Two sites, each with its own NES instance feeding a file sink.
	var sinks []*nes.FileSink
	var siteData []nesData
	for site := 0; site < 2; site++ {
		x, truth := data.FertilizerSensors(int64(10+site), 600, 0.01)
		in := nes.NewInstance([]*nes.Node{{ID: "edge", Capacity: 8}})
		sink, err := nes.NewFileSink("", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		in.RegisterSink("mill", sink)
		in.RegisterSource("sensors", func() nes.Source { return nes.NewMatrixSource(x) })
		if _, err := in.Deploy(&nes.Query{Name: "acquire", Source: "sensors", SinkName: "mill"}); err != nil {
			t.Fatal(err)
		}
		sinks = append(sinks, sink)
		siteData = append(siteData, nesData{x: x, truth: truth})
	}
	model, err := pipeline.TrainFertilizer(sinks, pipeline.FertilizerConfig{Quantile: 0.03, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Scoring site 0's own window should flag most injected anomalies.
	flags, err := model.Score(0, siteData[0].x)
	if err != nil {
		t.Fatal(err)
	}
	tp, fn := 0, 0
	for i, anomalous := range siteData[0].truth {
		if anomalous && flags[i] {
			tp++
		}
		if anomalous && !flags[i] {
			fn++
		}
	}
	if tp == 0 || tp < fn {
		t.Fatalf("anomaly recall too low: tp=%d fn=%d", tp, fn)
	}
	if _, err := model.Score(9, siteData[0].x); err == nil {
		t.Fatal("invalid site accepted")
	}
}

type nesData struct {
	x     *matrix.Dense
	truth []bool
}
