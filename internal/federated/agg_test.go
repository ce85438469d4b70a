package federated_test

import (
	"fmt"
	"math"
	"testing"

	"exdra/internal/federated"
	"exdra/internal/matrix"
)

var everyAggOp = []matrix.AggOp{matrix.AggSum, matrix.AggMin, matrix.AggMax,
	matrix.AggMean, matrix.AggVar, matrix.AggSD, matrix.AggSumSq}

// tupleCombine is a federated aggregate as the all-statistics partial
// tuples computed it: each partition's cells, in order, fold into (sum,
// sumsq, min, max, n), and the tuples merge in partition order.
func tupleCombine(op matrix.AggOp, parts [][]float64) float64 {
	sum, sumSq, mn, mx, n := 0.0, 0.0, math.Inf(1), math.Inf(-1), 0
	for _, cells := range parts {
		s, q, lo, hi := 0.0, 0.0, math.Inf(1), math.Inf(-1)
		for _, v := range cells {
			s += v
			q += v * v
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		sum += s
		sumSq += q
		if lo < mn {
			mn = lo
		}
		if hi > mx {
			mx = hi
		}
		n += len(cells)
	}
	c := float64(n)
	switch op {
	case matrix.AggSum:
		return sum
	case matrix.AggMin:
		return mn
	case matrix.AggMax:
		return mx
	case matrix.AggMean:
		return sum / c
	case matrix.AggVar:
		return (sumSq - sum*sum/c) / (c - 1)
	case matrix.AggSD:
		return math.Sqrt((sumSq - sum*sum/c) / (c - 1))
	default:
		return sumSq
	}
}

// sameValue reports whether got and want are the same float64, bit for
// bit, counting every NaN as the same value.
func sameValue(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
}

// TestAggregatesMatchTupleCombineBitwise: every AggOp's full, column (row
// partitions) and row (column partitions) read over three uneven
// partitions equals, bit for bit, what merging the all-statistics tuples
// gave, although each site now sends only the statistics its op reads.
func TestAggregatesMatchTupleCombineBitwise(t *testing.T) {
	cl := startCluster(t, 3)
	x := randMat(33, 31, 7)
	x.Set(2, 1, math.Copysign(0, -1))
	x.Set(5, 2, math.Inf(1))
	x.Set(9, 3, math.Inf(-1))
	x.Set(20, 4, math.NaN())
	for j := 0; j < x.Cols(); j++ {
		x.Set(14, j, math.Copysign(0, -1))
	}
	// Slicing x out of an even split leaves partitions of 5, 13 and 13
	// rows, or of 1, 3 and 3 columns.
	fr, err := distribute(t, cl, matrix.RBind(matrix.NewDense(8, 7), x), federated.RowPartitioned).Slice(8, 39, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := distribute(t, cl, matrix.CBind(matrix.NewDense(31, 2), x), federated.ColPartitioned).Slice(0, 31, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range []*federated.Matrix{fr, fc} {
		var sizes []string
		for _, p := range fx.Map().Partitions {
			sizes = append(sizes, fmt.Sprintf("%dx%d", p.Range.NumRows(), p.Range.NumCols()))
		}
		if got := fmt.Sprint(sizes); got != "[5x7 13x7 13x7]" && got != "[31x1 31x3 31x3]" {
			t.Fatalf("%s partitions %s", fx.Scheme(), got)
		}
	}
	// cells lists, per partition of fx, the cells of x it holds in the
	// window pick cuts from its range, in row-major order.
	cells := func(fx *federated.Matrix, pick func(r federated.Range) (rb, re, cb, ce int)) [][]float64 {
		var parts [][]float64
		for _, p := range fx.Map().Partitions {
			rb, re, cb, ce := pick(p.Range)
			parts = append(parts, x.Slice(rb, re, cb, ce).Data())
		}
		return parts
	}
	whole := func(r federated.Range) (int, int, int, int) { return r.RowBeg, r.RowEnd, r.ColBeg, r.ColEnd }
	for _, op := range everyAggOp {
		for _, fx := range []*federated.Matrix{fr, fc} {
			got, err := fx.AggFull(op)
			if err != nil {
				t.Fatal(err)
			}
			if want := tupleCombine(op, cells(fx, whole)); !sameValue(got, want) {
				t.Errorf("%s full %v = %v, want %v", fx.Scheme(), op, got, want)
			}
		}
		_, cols, err := fr.ColAgg(op)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < x.Cols(); j++ {
			want := tupleCombine(op, cells(fr, func(r federated.Range) (int, int, int, int) {
				return r.RowBeg, r.RowEnd, j, j + 1
			}))
			if got := cols.At(0, j); !sameValue(got, want) {
				t.Errorf("column %d %v = %v, want %v", j, op, got, want)
			}
		}
		_, rows, err := fc.RowAgg(op)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < x.Rows(); i++ {
			want := tupleCombine(op, cells(fc, func(r federated.Range) (int, int, int, int) {
				return i, i + 1, r.ColBeg, r.ColEnd
			}))
			if got := rows.At(i, 0); !sameValue(got, want) {
				t.Errorf("row %d %v = %v, want %v", i, op, got, want)
			}
		}
	}
}
