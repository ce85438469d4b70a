package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// tinyScale keeps harness tests fast while exercising every code path.
func tinyScale() Scale {
	return Scale{
		Rows: 200, Cols: 10,
		KMeansK: 3, PCAK: 3,
		FFNEpochs: 1, FFNBatch: 64, FFNHidden: 8,
		CNNRows: 40, CNNEpochs: 1, CNNBatch: 20, CNNFilters: 2,
		PipeRows: 200, PipeSignals: 5, PipeRecipes: 6,
		Seed: 1,
	}
}

func TestRunAllAlgorithmsLocalAndFederated(t *testing.T) {
	w := NewWorkloads(tinyScale())
	for _, name := range AlgorithmNames {
		m, err := w.RunAlgorithm(name, Env{Mode: Local}, nil)
		if err != nil {
			t.Fatalf("%s local: %v", name, err)
		}
		if m.Elapsed <= 0 {
			t.Fatalf("%s: no time measured", name)
		}
		env := Env{Mode: FedLAN, Workers: 2}
		cl, err := env.Cluster()
		if err != nil {
			t.Fatal(err)
		}
		m, err = w.RunAlgorithm(name, env, cl)
		cl.Close()
		if err != nil {
			t.Fatalf("%s federated: %v", name, err)
		}
		if m.Extra["mb_sent"] <= 0 {
			t.Fatalf("%s: no communication accounted", name)
		}
	}
	if _, err := w.RunAlgorithm("nope", Env{Mode: Local}, nil); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestLMLowerBound: the lower bound (a full local LM less the time of its
// offloadable kernels) does not exceed a full local LM. Both are
// sub-millisecond wall times at tinyScale, so each side is the fastest of
// five runs, which one descheduled run on a loaded machine cannot inflate.
func TestLMLowerBound(t *testing.T) {
	w := NewWorkloads(tinyScale())
	const runs = 5
	var full, lb time.Duration
	for i := 0; i < runs; i++ {
		f, err := w.RunAlgorithm("lm", Env{Mode: Local}, nil)
		if err != nil {
			t.Fatal(err)
		}
		l, err := w.LMLowerBound()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 || f.Elapsed < full {
			full = f.Elapsed
		}
		if i == 0 || l.Elapsed < lb {
			lb = l.Elapsed
		}
	}
	if lb > full {
		t.Fatalf("fastest lower bound %v exceeds fastest full local run %v (%d runs each)", lb, full, runs)
	}
}

func TestRunPipelineBothModes(t *testing.T) {
	w := NewWorkloads(tinyScale())
	m, err := w.RunPipeline("lm", Env{Mode: Local}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Extra["r2"] <= 0 {
		t.Fatalf("pipeline r2 %g", m.Extra["r2"])
	}
	env := Env{Mode: FedLAN, Workers: 2}
	cl, err := env.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	m, err = w.RunPipeline("lm", env, cl)
	if err != nil {
		t.Fatal(err)
	}
	if m.Extra["features"] <= 0 {
		t.Fatal("pipeline features")
	}
}

func TestBaselineRunners(t *testing.T) {
	w := NewWorkloads(tinyScale())
	for _, name := range []string{"kmeans", "pca", "ffn", "cnn"} {
		m := w.RunBaseline(name)
		if m.Elapsed <= 0 || m.Mode != "baseline" {
			t.Fatalf("%s baseline: %+v", name, m)
		}
	}
}

func TestModeClusterConfigs(t *testing.T) {
	for _, mode := range []Mode{FedLAN, FedWANSSL} {
		env := Env{Mode: mode, Workers: 2}
		cl, err := env.Cluster()
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		cl.Close()
	}
	if cl, err := (Env{Mode: Local}).Cluster(); err != nil || cl != nil {
		t.Fatal("local mode should have no cluster")
	}
	if _, err := (Env{Mode: "bogus"}).Cluster(); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

func TestTable1Printer(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf)
	out := buf.String()
	for _, want := range []string{"Matmult", "Quaternary", "tfencode", "wsloss"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 output missing %q", want)
		}
	}
}

func TestMeasurementRow(t *testing.T) {
	m := Measurement{Experiment: "fig5", Algorithm: "lm", Mode: Local,
		Workers: 3, Extra: map[string]float64{"b": 2, "a": 1}}
	row := m.Row()
	if !strings.Contains(row, "lm") || !strings.Contains(row, "a=1") {
		t.Fatalf("row %q", row)
	}
	// Extra keys render sorted.
	if strings.Index(row, "a=1") > strings.Index(row, "b=2") {
		t.Fatalf("extras unsorted: %q", row)
	}
}
