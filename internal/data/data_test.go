package data

import (
	"math"
	"testing"

	"exdra/internal/matrix"
	"exdra/internal/transform"
)

func TestRegressionDeterministicAndLearnable(t *testing.T) {
	x1, y1 := Regression(5, 100, 8, 0.01)
	x2, y2 := Regression(5, 100, 8, 0.01)
	if !x1.EqualApprox(x2, 0) || !y1.EqualApprox(y2, 0) {
		t.Fatal("not deterministic")
	}
	// Targets correlate with features: solving the normal equations
	// recovers most of the variance.
	w, ok := matrix.SolveCholesky(x1.TSMM(), x1.Transpose().MatMul(y1))
	if !ok {
		t.Fatal("normal equations")
	}
	pred := x1.MatMul(w)
	res := pred.Sub(y1)
	if res.Mul(res).Sum() > 0.01*y1.Mul(y1).Sum() {
		t.Fatal("targets not linear in features")
	}
}

func TestClassificationLabelsAndFlips(t *testing.T) {
	_, y := Classification(6, 500, 5, 0)
	for _, v := range y.Data() {
		if v != 1 && v != -1 {
			t.Fatalf("label %g", v)
		}
	}
	// With a 50% flip rate roughly half the labels differ from flip=0.
	_, y2 := Classification(6, 500, 5, 0.5)
	diff := 0
	for i := range y.Data() {
		if y.Data()[i] != y2.Data()[i] {
			diff++
		}
	}
	if diff < 150 || diff > 350 {
		t.Fatalf("flip rate off: %d/500 flipped", diff)
	}
}

func TestMultiClassAndBlobs(t *testing.T) {
	x, y := MultiClass(7, 300, 6, 5)
	if x.Rows() != 300 || y.Min() < 1 || y.Max() > 5 {
		t.Fatalf("labels range [%g,%g]", y.Min(), y.Max())
	}
	b, assign := Blobs(8, 200, 4, 3, 0.5)
	if b.Rows() != 200 || len(assign) != 200 {
		t.Fatal("blob shape")
	}
	for _, a := range assign {
		if a < 0 || a >= 3 {
			t.Fatalf("assignment %d", a)
		}
	}
}

func TestPaperProductionShapeAndEncoding(t *testing.T) {
	fr := PaperProduction(PaperProductionConfig{
		Rows: 500, ContinuousCols: 10, RecipeCategories: 30, NullRate: 0.1, Seed: 3,
	})
	if fr.NumRows() != 500 || fr.NumCols() != 13 {
		t.Fatalf("frame %dx%d", fr.NumRows(), fr.NumCols())
	}
	// NULL quality classes appear at roughly the configured rate.
	q := fr.ColumnByName("quality")
	nulls := 0
	for i := 0; i < q.Len(); i++ {
		if q.IsNA(i) {
			nulls++
		}
	}
	if nulls < 20 || nulls > 100 {
		t.Fatalf("null count %d", nulls)
	}
	// Encoding expands recipes and quality into one-hot blocks.
	x, meta, err := transform.Encode(fr, PaperProductionSpec())
	if err != nil {
		t.Fatal(err)
	}
	if x.Cols() <= 13 || meta.NumOutputCols() != x.Cols() {
		t.Fatalf("encoded width %d", x.Cols())
	}
	if fr.ColumnByName("zstrength") == nil {
		t.Fatal("target column missing")
	}
	// Defaults fill zero values.
	d := PaperProduction(PaperProductionConfig{})
	if d.NumRows() != 1000 {
		t.Fatal("defaults")
	}
}

func TestSyntheticMNISTShapeAndSparsity(t *testing.T) {
	x, y := SyntheticMNIST(9, 300)
	if x.Cols() != 784 || y.Rows() != 300 {
		t.Fatal("mnist shape")
	}
	if y.Min() < 1 || y.Max() > 10 {
		t.Fatal("mnist labels")
	}
	// Non-zero fraction just below SystemDS' sparse threshold of 0.4, as in
	// the paper's CNN discussion.
	sp := x.Sparsity()
	if sp < 0.05 || sp > 0.4 {
		t.Fatalf("sparsity %g outside (0.05, 0.4)", sp)
	}
}

func TestFertilizerSensors(t *testing.T) {
	x, anomalies := FertilizerSensors(10, 1000, 0.02)
	if x.Rows() != 1000 || x.Cols() != 68 {
		t.Fatal("sensor shape")
	}
	count := 0
	var anomalySum, normalSum float64
	var anomalyN, normalN int
	for i, a := range anomalies {
		rowMean := 0.0
		for _, v := range x.Row(i) {
			rowMean += v
		}
		rowMean /= 68
		if a {
			count++
			anomalySum += rowMean
			anomalyN++
		} else {
			normalSum += rowMean
			normalN++
		}
	}
	if count < 5 || count > 60 {
		t.Fatalf("anomaly count %d", count)
	}
	// Injected failures shift the sensor levels visibly.
	if anomalySum/float64(anomalyN) < normalSum/float64(normalN)+3 {
		t.Fatal("anomalies not separated from normal readings")
	}
	if math.IsNaN(anomalySum) {
		t.Fatal("NaN telemetry")
	}
}
