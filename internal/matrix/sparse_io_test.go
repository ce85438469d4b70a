package matrix

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

func TestBinaryIORoundTrip(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(33))
	m := Randn(rng, 13, 7, 2, 5)
	m.Set(0, 0, math.NaN())
	var buf bytes.Buffer
	if err := m.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualApprox(m, 0) {
		t.Fatal("binary round trip")
	}
}

func TestBinaryIOErrors(t *testing.T) {
	t.Parallel()
	if _, err := ReadBinary(strings.NewReader("BAD!")); err == nil {
		t.Fatal("bad magic accepted")
	}
	var buf bytes.Buffer
	m := NewDense(4, 4)
	if err := m.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestBinaryFileRoundTrip(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "m.bin")
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if err := m.WriteBinaryFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualApprox(m, 0) {
		t.Fatal("file round trip")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	t.Parallel()
	m := FromRows([][]float64{{1.5, -2}, {0, 4e10}})
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualApprox(m, 0) {
		t.Fatal("csv round trip")
	}
}

func TestCSVErrors(t *testing.T) {
	t.Parallel()
	if _, err := ReadCSV(strings.NewReader("1,2\n3\n")); err == nil {
		t.Fatal("ragged csv accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1,x\n")); err == nil {
		t.Fatal("non-numeric csv accepted")
	}
	empty, err := ReadCSV(strings.NewReader(""))
	if err != nil || empty.Rows() != 0 {
		t.Fatal("empty csv")
	}
}
