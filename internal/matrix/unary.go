package matrix

import (
	"fmt"
	"math"
)

// UnaryOp identifies an element-wise unary operation, mirroring the unary
// federated instructions of ExDRa Table 1.
type UnaryOp int

// Supported element-wise unary operations.
const (
	UAbs UnaryOp = iota
	UCos
	UExp
	UFloor
	UCeil
	UIsNA
	ULog
	UNot
	URound
	USin
	USign
	USqrt
	UTan
	USigmoid
	UNeg
	URelu
)

// String returns the DML-style opcode for the operation.
func (op UnaryOp) String() string {
	names := [...]string{"abs", "cos", "exp", "floor", "ceil", "isNA", "log",
		"!", "round", "sin", "sign", "sqrt", "tan", "sigmoid", "-", "relu"}
	if int(op) < len(names) {
		return names[op]
	}
	return fmt.Sprintf("unop(%d)", int(op))
}

func (op UnaryOp) apply(a float64) float64 {
	switch op {
	case UAbs:
		return math.Abs(a)
	case UCos:
		return math.Cos(a)
	case UExp:
		return math.Exp(a)
	case UFloor:
		return math.Floor(a)
	case UCeil:
		return math.Ceil(a)
	case UIsNA:
		return b2f(math.IsNaN(a))
	case ULog:
		return math.Log(a)
	case UNot:
		return b2f(a == 0)
	case URound:
		return math.Round(a)
	case USin:
		return math.Sin(a)
	case USign:
		switch {
		case a > 0:
			return 1
		case a < 0:
			return -1
		default:
			return 0
		}
	case USqrt:
		return math.Sqrt(a)
	case UTan:
		return math.Tan(a)
	case USigmoid:
		return 1 / (1 + math.Exp(-a))
	case UNeg:
		return -a
	case URelu:
		return math.Max(0, a)
	default:
		panic("matrix: unknown unary op")
	}
}

// Unary applies op to every cell.
func (m *Dense) Unary(op UnaryOp) *Dense {
	out := NewDense(m.rows, m.cols)
	parallelFor(len(m.data), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.data[i] = op.apply(m.data[i])
		}
	})
	return out
}

// Apply applies fn to every cell. fn must be pure; it may run concurrently.
func (m *Dense) Apply(fn func(float64) float64) *Dense {
	out := NewDense(m.rows, m.cols)
	parallelFor(len(m.data), 4, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.data[i] = fn(m.data[i])
		}
	})
	return out
}

// Sigmoid returns element-wise 1/(1+e^-m).
func (m *Dense) Sigmoid() *Dense { return m.Unary(USigmoid) }

// Neg returns -m.
func (m *Dense) Neg() *Dense { return m.Unary(UNeg) }

// Softmax returns row-wise softmax in a numerically stable form
// (subtracting the row maximum before exponentiation).
func (m *Dense) Softmax() *Dense {
	out := NewDense(m.rows, m.cols)
	parallelFor(m.rows, m.cols*4, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			orow := out.Row(i)
			mx := math.Inf(-1)
			for _, v := range row {
				if v > mx {
					mx = v
				}
			}
			sum := 0.0
			for j, v := range row {
				e := math.Exp(v - mx)
				orow[j] = e
				sum += e
			}
			inv := 1 / sum
			for j := range orow {
				orow[j] *= inv
			}
		}
	})
	return out
}
