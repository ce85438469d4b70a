package worker

import (
	"math/rand"
	"testing"

	"exdra/internal/fedrpc"
	"exdra/internal/matrix"
	"exdra/internal/privacy"
)

func onehot(rng *rand.Rand, rows, cols int) *matrix.Dense {
	m := matrix.NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		m.Set(i, rng.Intn(cols), 1)
	}
	return m
}

func TestCompactAndTransparentAccess(t *testing.T) {
	w := New("")
	rng := rand.New(rand.NewSource(1))
	oneHot := onehot(rng, 300, 10)
	dense := matrix.Randn(rng, 50, 10, 0, 1)
	put(t, w, 1, oneHot, privacy.PrivateAggregation)
	put(t, w, 2, dense, privacy.Public)

	n, saved := w.Compact(1.5)
	if n != 1 || saved <= 0 {
		t.Fatalf("compacted %d objects, saved %d", n, saved)
	}
	e, _ := w.Get(1)
	if e.Comp == nil || e.Mat != nil {
		t.Fatal("one-hot entry not swapped to compressed form")
	}
	if e.Level != privacy.PrivateAggregation {
		t.Fatal("compaction changed the privacy constraint")
	}
	e2, _ := w.Get(2)
	if e2.Comp != nil {
		t.Fatal("incompressible entry compacted")
	}

	// Instructions work transparently on compacted objects.
	r := exec(t, w, fedrpc.Instruction{Opcode: "uar_sum", Inputs: []int64{1}, Output: 3})
	if !r.OK {
		t.Fatal(r.Err)
	}
	got, err := w.Matrix(3)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualApprox(oneHot.RowSums(), 0) {
		t.Fatal("result over compacted data wrong")
	}
	// Access decompressed and re-cached the dense form.
	if e.Mat == nil || e.Comp != nil {
		t.Fatal("transparent decompression did not re-cache")
	}
}

// TestCompactedOperandsEqualDense: tmm, mm and uac_partial over a compacted
// X give exactly what the dense X gives — t(X) %*% B as the transposing
// form, X %*% v as the blocked product, and the column partials as four
// ColAggs plus the count row.
func TestCompactedOperandsEqualDense(t *testing.T) {
	w := New("")
	rng := rand.New(rand.NewSource(4))
	x := onehot(rng, 400, 12)
	b := matrix.Randn(rng, x.Rows(), 3, 0, 1)
	v := matrix.Randn(rng, x.Cols(), 1, 0, 1)
	put(t, w, 1, x, privacy.Public)
	put(t, w, 2, b, privacy.Public)
	put(t, w, 3, v, privacy.Public)
	cases := []struct {
		op     string
		inputs []int64
		want   *matrix.Dense
	}{
		{"tmm", []int64{1, 2}, x.Transpose().MatMul(b)},
		{"mm", []int64{1, 3}, x.MatMul(v)},
		{"uac_partial", []int64{1}, matrix.RBind(x.ColAgg(matrix.AggSum), x.ColAgg(matrix.AggSumSq),
			x.ColAgg(matrix.AggMin), x.ColAgg(matrix.AggMax), matrix.Fill(1, x.Cols(), float64(x.Rows())))},
	}
	for i, c := range cases {
		w.Compact(1.5)
		if e, _ := w.Get(1); e.Comp == nil {
			t.Fatalf("%s: X is not compacted", c.op)
		}
		out := int64(10 + i)
		if r := exec(t, w, fedrpc.Instruction{Opcode: c.op, Inputs: c.inputs, Output: out}); !r.OK {
			t.Fatalf("%s: %s", c.op, r.Err)
		}
		got, err := w.Matrix(out)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualApprox(c.want, 0) {
			t.Fatalf("%s over compacted X differs from the dense result", c.op)
		}
	}
}

func TestCompactGetDecompresses(t *testing.T) {
	w := New("")
	rng := rand.New(rand.NewSource(2))
	m := onehot(rng, 100, 6)
	put(t, w, 1, m, privacy.Public)
	if n, _ := w.Compact(1.2); n != 1 {
		t.Fatal("not compacted")
	}
	resp := w.Handle([]fedrpc.Request{{Type: fedrpc.Get, ID: 1}})[0]
	if !resp.OK || !resp.Data.Matrix().EqualApprox(m, 0) {
		t.Fatal("GET of compacted object")
	}
}

func TestCompactUDF(t *testing.T) {
	w := New("")
	rng := rand.New(rand.NewSource(3))
	put(t, w, 1, onehot(rng, 200, 8), privacy.Public)
	args, err := EncodeArgs(CompactArgs{MinRatio: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	resp := w.Handle([]fedrpc.Request{{Type: fedrpc.ExecUDF, UDF: &fedrpc.UDFCall{
		Name: "compact", Args: args}}})[0]
	if !resp.OK || resp.Data.Scalar <= 0 {
		t.Fatalf("compact UDF: %+v", resp)
	}
}
