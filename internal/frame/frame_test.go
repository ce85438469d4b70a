package frame

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func sample() *Frame {
	return MustNew(
		StringColumn("A", []string{"R101", "C7", "R102"}),
		FloatColumn("B", []float64{2100, 5500, 1.5}),
		IntColumn("N", []int64{1, 2, 3}),
		&Column{Name: "F", Type: Boolean, Bools: []bool{true, false, true}},
	)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(FloatColumn("a", []float64{1}), FloatColumn("a", []float64{2})); err == nil {
		t.Fatal("duplicate names accepted")
	}
	if _, err := New(FloatColumn("a", []float64{1}), FloatColumn("b", []float64{1, 2})); err == nil {
		t.Fatal("ragged columns accepted")
	}
}

func TestAccessors(t *testing.T) {
	f := sample()
	if f.NumRows() != 3 || f.NumCols() != 4 {
		t.Fatalf("%dx%d", f.NumRows(), f.NumCols())
	}
	if f.ColumnByName("B").MustFloat(1) != 5500 {
		t.Fatal("AsFloat")
	}
	if f.ColumnByName("missing") != nil {
		t.Fatal("missing column should be nil")
	}
	if f.Column(0).AsString(0) != "R101" {
		t.Fatal("AsString")
	}
	if got := f.Names(); strings.Join(got, ",") != "A,B,N,F" {
		t.Fatalf("names %v", got)
	}
	if f.Column(1).Type != Float64 || f.Column(2).Type != Int64 {
		t.Fatal("schema")
	}
	if f.Column(3).MustFloat(0) != 1 || f.Column(3).MustFloat(1) != 0 {
		t.Fatal("bool as float")
	}
	if f.Column(2).MustFloat(2) != 3 {
		t.Fatal("int as float")
	}
}

func TestNAHandling(t *testing.T) {
	c := StringColumn("C", []string{"X", "", "Z"})
	if !c.IsNA(1) || c.IsNA(0) {
		t.Fatal("NA detection")
	}
	if c.AsString(1) != "" {
		t.Fatal("NA as string")
	}
	fc := &Column{Name: "v", Type: Float64, Floats: []float64{1, 2}, NA: []bool{false, true}}
	if !math.IsNaN(fc.MustFloat(1)) {
		t.Fatal("NA as float should be NaN")
	}
}

func TestStringColumnAsFloatErrors(t *testing.T) {
	if _, err := StringColumn("s", []string{"x"}).AsFloat(0); err == nil {
		t.Fatal("expected error coercing a string column to float")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustFloat should panic on a string column")
		}
	}()
	StringColumn("s", []string{"x"}).MustFloat(0)
}

func TestSliceRows(t *testing.T) {
	f := sample()
	s := f.SliceRows(1, 3)
	if s.NumRows() != 2 || s.Column(0).AsString(0) != "C7" {
		t.Fatal("SliceRows")
	}
	// Slices are copies.
	s.Column(1).Floats[0] = -1
	if f.Column(1).MustFloat(1) == -1 {
		t.Fatal("slice aliases parent")
	}
}

func TestRBind(t *testing.T) {
	a := sample()
	b := sample()
	r, err := RBind(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 6 || r.Column(0).AsString(3) != "R101" {
		t.Fatal("rbind content")
	}
	// Schema mismatch rejected.
	c := MustNew(FloatColumn("A", []float64{1}))
	if _, err := RBind(a, c); err == nil {
		t.Fatal("schema mismatch accepted")
	}
}

func TestRBindNAPropagation(t *testing.T) {
	a := MustNew(StringColumn("C", []string{"X", ""}))
	b := MustNew(StringColumn("C", []string{"Z"}))
	r, err := RBind(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Column(0).IsNA(1) || r.Column(0).IsNA(2) {
		t.Fatal("NA flags lost in rbind")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	f := sample()
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 3 || got.NumCols() != 4 {
		t.Fatalf("round trip shape %dx%d", got.NumRows(), got.NumCols())
	}
	if got.Column(0).Type != String || got.Column(1).Type != Float64 ||
		got.Column(2).Type != Int64 || got.Column(3).Type != Boolean {
		t.Fatal("type inference")
	}
	if got.Column(1).MustFloat(2) != 1.5 {
		t.Fatal("float cell")
	}
}

func TestCSVTypeInferenceWithNAs(t *testing.T) {
	in := "A,B\nx,1\n,2\ny,\n"
	f, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !f.Column(0).IsNA(1) || !f.Column(1).IsNA(2) {
		t.Fatal("NA from empty cells")
	}
	if f.Column(1).Type != Int64 {
		t.Fatal("int inference with NA")
	}
}

func TestCSVEmpty(t *testing.T) {
	f, err := ReadCSV(strings.NewReader(""))
	if err != nil || f.NumRows() != 0 {
		t.Fatal("empty csv")
	}
}

func TestValueTypeString(t *testing.T) {
	if Float64.String() != "FP64" || String.String() != "STRING" {
		t.Fatal("ValueType.String")
	}
}
