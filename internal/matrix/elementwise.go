package matrix

import (
	"fmt"
	"math"
)

// BinaryOp identifies an element-wise binary operation. The set mirrors the
// binary federated instructions of ExDRa Table 1.
type BinaryOp int

// Supported element-wise binary operations.
const (
	OpAdd BinaryOp = iota
	OpSub
	OpMul
	OpDiv
	OpPow
	OpMin
	OpMax
	OpMod
	OpIntDiv
	OpEq
	OpNe
	OpGt
	OpGe
	OpLt
	OpLe
	OpAnd
	OpOr
	OpXor
	OpLog // log_b(a): log of a with base b
)

// String returns the DML-style opcode for the operation.
func (op BinaryOp) String() string {
	names := [...]string{"+", "-", "*", "/", "^", "min", "max", "%%", "%/%",
		"==", "!=", ">", ">=", "<", "<=", "&", "|", "xor", "log_b"}
	if int(op) < len(names) {
		return names[op]
	}
	return fmt.Sprintf("binop(%d)", int(op))
}

func (op BinaryOp) apply(a, b float64) float64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpDiv:
		return a / b
	case OpPow:
		return math.Pow(a, b)
	case OpMin:
		return math.Min(a, b)
	case OpMax:
		return math.Max(a, b)
	case OpMod:
		return math.Mod(a, b)
	case OpIntDiv:
		return math.Floor(a / b)
	case OpEq:
		return b2f(a == b)
	case OpNe:
		return b2f(a != b)
	case OpGt:
		return b2f(a > b)
	case OpGe:
		return b2f(a >= b)
	case OpLt:
		return b2f(a < b)
	case OpLe:
		return b2f(a <= b)
	case OpAnd:
		return b2f(a != 0 && b != 0)
	case OpOr:
		return b2f(a != 0 || b != 0)
	case OpXor:
		return b2f((a != 0) != (b != 0))
	case OpLog:
		return math.Log(a) / math.Log(b)
	default:
		panic("matrix: unknown binary op")
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Binary applies op cell-wise with R-style broadcasting: b may have the same
// shape as m, be a column vector (rows x 1), a row vector (1 x cols), or a
// 1x1 scalar.
func (m *Dense) Binary(op BinaryOp, b *Dense) *Dense {
	out := NewDense(m.rows, m.cols)
	switch {
	case b.rows == m.rows && b.cols == m.cols:
		parallelFor(len(m.data), 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out.data[i] = op.apply(m.data[i], b.data[i])
			}
		})
	case b.rows == 1 && b.cols == 1:
		return m.BinaryScalar(op, b.data[0], false)
	case b.rows == m.rows && b.cols == 1: // column-vector broadcast
		parallelFor(m.rows, m.cols, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := b.data[i]
				row := m.Row(i)
				orow := out.Row(i)
				for j, a := range row {
					orow[j] = op.apply(a, v)
				}
			}
		})
	case b.rows == 1 && b.cols == m.cols: // row-vector broadcast
		parallelFor(m.rows, m.cols, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				row := m.Row(i)
				orow := out.Row(i)
				for j, a := range row {
					orow[j] = op.apply(a, b.data[j])
				}
			}
		})
	default:
		panic(fmt.Sprintf("matrix: incompatible shapes %dx%d %s %dx%d",
			m.rows, m.cols, op, b.rows, b.cols))
	}
	return out
}

// BinaryScalar applies op cell-wise against scalar s. When swap is true the
// scalar is the left operand (s op m), e.g. for 1-X.
func (m *Dense) BinaryScalar(op BinaryOp, s float64, swap bool) *Dense {
	out := NewDense(m.rows, m.cols)
	parallelFor(len(m.data), 1, func(lo, hi int) {
		if swap {
			for i := lo; i < hi; i++ {
				out.data[i] = op.apply(s, m.data[i])
			}
		} else {
			for i := lo; i < hi; i++ {
				out.data[i] = op.apply(m.data[i], s)
			}
		}
	})
	return out
}

// Convenience wrappers for the most common binary operations.

// Add returns m + b with broadcasting.
func (m *Dense) Add(b *Dense) *Dense { return m.Binary(OpAdd, b) }

// Sub returns m - b with broadcasting.
func (m *Dense) Sub(b *Dense) *Dense { return m.Binary(OpSub, b) }

// Mul returns the element-wise (Hadamard) product m * b with broadcasting.
func (m *Dense) Mul(b *Dense) *Dense { return m.Binary(OpMul, b) }

// Div returns element-wise m / b with broadcasting.
func (m *Dense) Div(b *Dense) *Dense { return m.Binary(OpDiv, b) }

// Scale returns m * s.
func (m *Dense) Scale(s float64) *Dense { return m.BinaryScalar(OpMul, s, false) }

// AddScalar returns m + s.
func (m *Dense) AddScalar(s float64) *Dense { return m.BinaryScalar(OpAdd, s, false) }

// AddInPlace adds b (same shape) into m, mutating m. Used by hot paths such
// as the parameter server where allocation matters.
func (m *Dense) AddInPlace(b *Dense) {
	if m.rows != b.rows || m.cols != b.cols {
		panic("matrix: AddInPlace shape mismatch")
	}
	for i, v := range b.data {
		m.data[i] += v
	}
}

// ScaleInPlace multiplies every cell of m by s, mutating m.
func (m *Dense) ScaleInPlace(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// AxpyInPlace computes m += alpha*b, mutating m.
func (m *Dense) AxpyInPlace(alpha float64, b *Dense) {
	if m.rows != b.rows || m.cols != b.cols {
		panic("matrix: AxpyInPlace shape mismatch")
	}
	for i, v := range b.data {
		m.data[i] += alpha * v
	}
}
