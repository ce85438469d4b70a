package pipeline_test

import (
	"testing"

	"exdra/internal/federated"
	"exdra/internal/fedtest"
	"exdra/internal/frame"
	"exdra/internal/matrix"
	"exdra/internal/privacy"
	"exdra/internal/transform"
)

func TestFederatedImputeModeAndFD(t *testing.T) {
	cl, err := fedtest.Start(fedtest.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// A -> C holds across sites; site 2 holds the evidence for C3 -> Y.
	fr := frame.MustNew(
		frame.StringColumn("A", []string{"R101", "R101", "C3", "R101", "C3", "C3"}),
		frame.StringColumn("C", []string{"X", "", "Y", "X", "", "Y"}),
	)
	ff, err := federated.DistributeFrame(cl.Coord, fr, cl.Addrs, privacy.PrivateAggregation)
	if err != nil {
		t.Fatal(err)
	}

	// Mode imputation: the global mode across both sites is X (2x) vs Y (2x)
	// -> lexicographic tie-break X.
	imputed, mode, err := ff.ImputeMode("C")
	if err != nil {
		t.Fatal(err)
	}
	if mode != "X" {
		t.Fatalf("global mode %q", mode)
	}
	// The imputed frame stays federated; verify through a federated encode
	// (raw rows stay untransferable; only aggregates may leave the sites).
	spec := transform.Spec{Columns: []transform.ColumnSpec{
		{Name: "A", Method: transform.Recode, OneHot: true},
		{Name: "C", Method: transform.Recode, OneHot: true},
	}}
	fx, meta, err := imputed.TransformEncode(spec, fr.Names())
	if err != nil {
		t.Fatal(err)
	}
	// After imputation no all-zero one-hot rows remain for C.
	_, colSums, err := fx.ColAgg(matrix.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	off := len(meta.RecodeKeys["A"])
	for j := off; j < off+len(meta.RecodeKeys["C"]); j++ {
		total += colSums.At(0, j)
	}
	if total != 6 {
		t.Fatalf("C one-hot mass %g, want 6 (all rows filled)", total)
	}

	// FD imputation: A -> C maps the two NULLs to different values.
	fdImputed, mapping, err := ff.ImputeFD("A", "C", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if mapping["R101"] != "X" || mapping["C3"] != "Y" {
		t.Fatalf("fd mapping %v", mapping)
	}
	fx2, meta2, err := fdImputed.TransformEncode(spec, fr.Names())
	if err != nil {
		t.Fatal(err)
	}
	_, cs2, err := fx2.ColAgg(matrix.AggSum)
	if err != nil {
		t.Fatal(err)
	}
	// X appears 3x (rows 0,1,3) and Y 3x (rows 2,4,5) after FD imputation.
	keys := meta2.RecodeKeys["C"]
	offC := len(meta2.RecodeKeys["A"])
	got := map[string]float64{}
	for j, key := range keys {
		got[key] = cs2.At(0, offC+j)
	}
	if got["X"] != 3 || got["Y"] != 3 {
		t.Fatalf("fd-imputed distribution %v", got)
	}
}
