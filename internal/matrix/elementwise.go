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

// b2f returns 1 for true and 0 for false. It selects the bits of 1.0 in an
// integer register, which compiles to a conditional move, not a branch, so
// a comparison over mixed data costs no mispredictions.
func b2f(b bool) float64 {
	var bits uint64
	if b {
		bits = 0x3ff0000000000000 // 1.0
	}
	return math.Float64frombits(bits)
}

// Binary applies op cell-wise with R-style broadcasting: b may have the same
// shape as m, be a column vector (rows x 1), a row vector (1 x cols), or a
// 1x1 scalar.
//
// The op is resolved to its loop once per call (vectorKernel, scalarKernel),
// not once per cell; a broadcast runs that loop on each row. Every cell
// still computes op.apply(a, b) with the same operands in the same order,
// so the result is bitwise what a per-cell apply gives.
func (m *Dense) Binary(op BinaryOp, b *Dense) *Dense {
	if b.rows == 1 && b.cols == 1 {
		return m.BinaryScalar(op, b.data[0], false)
	}
	out := NewDense(m.rows, m.cols)
	c := m.cols
	switch {
	case b.rows == m.rows && b.cols == m.cols:
		k := vectorKernel(op)
		parallelFor(len(m.data), 1, func(lo, hi int) {
			k(out.data[lo:hi], m.data[lo:hi], b.data[lo:hi])
		})
	case b.rows == m.rows && b.cols == 1: // column-vector broadcast
		k := scalarKernel(op, false)
		parallelFor(m.rows, c, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				k(out.data[i*c:(i+1)*c], m.data[i*c:(i+1)*c], b.data[i])
			}
		})
	case b.rows == 1 && b.cols == m.cols: // row-vector broadcast
		k := vectorKernel(op)
		parallelFor(m.rows, c, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				k(out.data[i*c:(i+1)*c], m.data[i*c:(i+1)*c], b.data)
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
	k := scalarKernel(op, swap)
	parallelFor(len(m.data), 1, func(lo, hi int) {
		k(out.data[lo:hi], m.data[lo:hi], s)
	})
	return out
}

// vectorKernel returns the loop that sets o[i] = a[i] op b[i]; a and b are
// at least as long as o. + - * / have a loop of their own, and so have min
// and max (P2's clipping against row vectors); every other op calls
// op.apply per cell.
func vectorKernel(op BinaryOp) func(o, a, b []float64) {
	switch op {
	case OpAdd:
		return func(o, a, b []float64) {
			a, b = a[:len(o)], b[:len(o)]
			for i := range o {
				o[i] = a[i] + b[i]
			}
		}
	case OpSub:
		return func(o, a, b []float64) {
			a, b = a[:len(o)], b[:len(o)]
			for i := range o {
				o[i] = a[i] - b[i]
			}
		}
	case OpMul:
		return func(o, a, b []float64) {
			a, b = a[:len(o)], b[:len(o)]
			for i := range o {
				o[i] = a[i] * b[i]
			}
		}
	case OpDiv:
		return func(o, a, b []float64) {
			a, b = a[:len(o)], b[:len(o)]
			for i := range o {
				o[i] = a[i] / b[i]
			}
		}
	case OpMin:
		return func(o, a, b []float64) {
			a, b = a[:len(o)], b[:len(o)]
			for i := range o {
				o[i] = math.Min(a[i], b[i])
			}
		}
	case OpMax:
		return func(o, a, b []float64) {
			a, b = a[:len(o)], b[:len(o)]
			for i := range o {
				o[i] = math.Max(a[i], b[i])
			}
		}
	default:
		return func(o, a, b []float64) {
			a, b = a[:len(o)], b[:len(o)]
			for i := range o {
				o[i] = op.apply(a[i], b[i])
			}
		}
	}
}

// scalarKernel returns the loop that sets o[i] = a[i] op s, or s op a[i]
// when swap is true; a is at least as long as o. + - * / have a loop of
// their own, and so have max (P2's ReLU), > (the L2SVM and FFN masks) and
// <= (K-Means' column broadcast against the row minima); with the scalar
// on the left, - and / (1 - P, 1 / X). Every other op calls op.apply per
// cell.
func scalarKernel(op BinaryOp, swap bool) func(o, a []float64, s float64) {
	if swap {
		switch op {
		case OpSub:
			return func(o, a []float64, s float64) {
				a = a[:len(o)]
				for i := range o {
					o[i] = s - a[i]
				}
			}
		case OpDiv:
			return func(o, a []float64, s float64) {
				a = a[:len(o)]
				for i := range o {
					o[i] = s / a[i]
				}
			}
		default:
			return func(o, a []float64, s float64) {
				a = a[:len(o)]
				for i := range o {
					o[i] = op.apply(s, a[i])
				}
			}
		}
	}
	switch op {
	case OpAdd:
		return func(o, a []float64, s float64) {
			a = a[:len(o)]
			for i := range o {
				o[i] = a[i] + s
			}
		}
	case OpSub:
		return func(o, a []float64, s float64) {
			a = a[:len(o)]
			for i := range o {
				o[i] = a[i] - s
			}
		}
	case OpMul:
		return func(o, a []float64, s float64) {
			a = a[:len(o)]
			for i := range o {
				o[i] = a[i] * s
			}
		}
	case OpDiv:
		return func(o, a []float64, s float64) {
			a = a[:len(o)]
			for i := range o {
				o[i] = a[i] / s
			}
		}
	case OpMax:
		return func(o, a []float64, s float64) {
			a = a[:len(o)]
			for i := range o {
				o[i] = math.Max(a[i], s)
			}
		}
	case OpGt:
		return func(o, a []float64, s float64) {
			a = a[:len(o)]
			for i := range o {
				o[i] = b2f(a[i] > s)
			}
		}
	case OpLe:
		return func(o, a []float64, s float64) {
			a = a[:len(o)]
			for i := range o {
				o[i] = b2f(a[i] <= s)
			}
		}
	default:
		return func(o, a []float64, s float64) {
			a = a[:len(o)]
			for i := range o {
				o[i] = op.apply(a[i], s)
			}
		}
	}
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
