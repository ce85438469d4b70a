package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// ewSpecial are the cells an element-wise kernel must pass through
// exactly as op.apply does: NaN, ±Inf, ±0, the smallest positive and a
// mid-range negative subnormal, and small integers for %%, %/% and the
// logical ops. (A subnormal divisor costs math.Mod a thousand steps, so
// there are two, not four.)
var ewSpecial = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -1.5e-310, 1, -1, 2, -3, 0.5,
}

// ewCells draws a rows x cols matrix: bytes of pick, then the rng, choose
// each cell from ewSpecial or from normal values at scales 1e-3 to 1e3.
func ewCells(rows, cols int, seed int64, pick []byte) *Dense {
	rng := rand.New(rand.NewSource(seed))
	m := NewDense(rows, cols)
	for i := range m.data {
		b := int(rng.Intn(256))
		if i < len(pick) {
			b = int(pick[i])
		}
		if k := b % 24; k < len(ewSpecial) {
			m.data[i] = ewSpecial[k]
		} else {
			m.data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
	return m
}

// ewDiff reports the first cell where got differs from want in shape or
// in any bit, or "" when none does. Any NaN matches any NaN: which payload
// survives when two NaNs meet follows the operand order the compiler picks
// for a commutative op.
func ewDiff(got, want *Dense) string {
	if got.rows != want.rows || got.cols != want.cols {
		return fmt.Sprintf("shape %dx%d, want %dx%d", got.rows, got.cols, want.rows, want.cols)
	}
	for i, g := range got.data {
		w := want.data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return fmt.Sprintf("cell (%d,%d) is %v (%#x), want %v (%#x)",
				i/got.cols, i%got.cols, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	return ""
}

// applyCells is the per-cell oracle: out[i,j] = f(i, j) for every cell of
// an r x c result.
func applyCells(r, c int, f func(i, j int) float64) *Dense {
	out := NewDense(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			out.data[i*c+j] = f(i, j)
		}
	}
	return out
}

// checkElementwise runs op on m in all six forms of Binary and
// BinaryScalar — same shape, column broadcast, row broadcast, 1x1, scalar
// on the right and scalar on the left — and uop through Unary, and
// compares each result with op.apply cell by cell.
func checkElementwise(op BinaryOp, uop UnaryOp, m *Dense, seed int64, s float64) error {
	r, c := m.rows, m.cols
	same, col, row, one := ewCells(r, c, seed+1, nil), ewCells(r, 1, seed+2, nil),
		ewCells(1, c, seed+3, nil), ewCells(1, 1, seed+4, nil)
	forms := []struct {
		name      string
		got, want *Dense
	}{
		{"same shape", m.Binary(op, same),
			applyCells(r, c, func(i, j int) float64 { return op.apply(m.At(i, j), same.At(i, j)) })},
		{"column broadcast", m.Binary(op, col),
			applyCells(r, c, func(i, j int) float64 { return op.apply(m.At(i, j), col.At(i, 0)) })},
		{"row broadcast", m.Binary(op, row),
			applyCells(r, c, func(i, j int) float64 { return op.apply(m.At(i, j), row.At(0, j)) })},
		{"1x1", m.Binary(op, one),
			applyCells(r, c, func(i, j int) float64 { return op.apply(m.At(i, j), one.At(0, 0)) })},
		{"scalar right", m.BinaryScalar(op, s, false),
			applyCells(r, c, func(i, j int) float64 { return op.apply(m.At(i, j), s) })},
		{"scalar left", m.BinaryScalar(op, s, true),
			applyCells(r, c, func(i, j int) float64 { return op.apply(s, m.At(i, j)) })},
		{"unary " + uop.String(), m.Unary(uop),
			applyCells(r, c, func(i, j int) float64 { return uop.apply(m.At(i, j)) })},
	}
	for _, f := range forms {
		if d := ewDiff(f.got, f.want); d != "" {
			return fmt.Errorf("%dx%d %s %s (s=%v): %s", r, c, op, f.name, s, d)
		}
	}
	return nil
}

// TestElementwiseBitwiseEqualsApply: every BinaryOp in every form of
// Binary and BinaryScalar, and every UnaryOp, gives op.apply's bits on
// 0-23 x 1-19 cells of NaN, ±Inf, ±0, subnormals and normal values, and on
// one size above parallelThreshold.
func TestElementwiseBitwiseEqualsApply(t *testing.T) {
	nops := int(OpLog) + 1
	nuops := int(URelu) + 1
	for r := 0; r < 24; r++ {
		for c := 1; c < 20; c++ {
			m := ewCells(r, c, int64(r*100+c), nil)
			for op := 0; op < nops; op++ {
				s := ewSpecial[(r+c+op)%len(ewSpecial)]
				if err := checkElementwise(BinaryOp(op), UnaryOp((r+c+op)%nuops), m, int64(op), s); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// 301 x 67 cells split into ragged chunks of rows and of cells.
	defer SetParallelism(SetParallelism(4))
	big := ewCells(301, 67, 1, nil)
	for op := 0; op < max(nops, nuops); op++ {
		s := ewSpecial[op%len(ewSpecial)]
		if err := checkElementwise(BinaryOp(op%nops), UnaryOp(op%nuops), big, int64(op), s); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzElementwise checks one BinaryOp in all six forms and one UnaryOp
// against op.apply on 0-23 x 1-19 cells drawn from ewCells, the scalar
// among them.
func FuzzElementwise(f *testing.F) {
	f.Add(uint8(9), uint8(5), uint8(1), uint8(0), int64(1), []byte{4, 3, 0, 1, 5})
	f.Add(uint8(4), uint8(1), uint8(3), uint8(13), int64(2), []byte{})
	f.Add(uint8(23), uint8(18), uint8(12), uint8(6), int64(3), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, r, c, op, uop uint8, seed int64, pick []byte) {
		m := ewCells(int(r%24), 1+int(c%19), seed, pick)
		s := ewCells(1, 1, seed+5, nil).data[0]
		if len(pick) > 0 {
			s = ewSpecial[int(pick[0])%len(ewSpecial)]
		}
		bop, u := BinaryOp(int(op)%(int(OpLog)+1)), UnaryOp(int(uop)%(int(URelu)+1))
		if err := checkElementwise(bop, u, m, seed, s); err != nil {
			t.Fatal(err)
		}
	})
}
