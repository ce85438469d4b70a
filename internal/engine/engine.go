// Package engine is the hybrid-plan dispatch layer of ExDRa-Go, standing in
// for SystemDS' compiler (§4.2): backend-agnostic matrix operations that
// execute locally on *matrix.Dense inputs and compile to federated
// instructions on *federated.Matrix inputs. ML algorithm "scripts" (package
// algo) are written once against these operations and run unchanged on
// local, LAN-federated, or WAN-federated data — the paper's central design
// point ("this built-in function script is agnostic of local, distributed,
// or federated input matrices").
//
// Operations panic with an *Error on federated failures; algorithm entry
// points convert them back to errors via Guard.
package engine

import (
	"fmt"

	"exdra/internal/federated"
	"exdra/internal/matrix"
)

// Mat is a local or federated matrix.
type Mat interface {
	Rows() int
	Cols() int
}

// Error wraps a federated runtime failure raised inside an engine operation.
type Error struct{ Err error }

func (e *Error) Error() string { return e.Err.Error() }

// Unwrap returns the underlying error.
func (e *Error) Unwrap() error { return e.Err }

// Guard converts an engine panic back into an error; algorithm entry points
// use it as `defer engine.Guard(&err)` so scripts read like DML while
// failures still surface as ordinary errors.
func Guard(err *error) {
	if r := recover(); r != nil {
		if e, ok := r.(*Error); ok {
			*err = e
			return
		}
		panic(r)
	}
}

func fail(err error) {
	//lint:ignore nopanic engine throw: Guard converts it back to an error at every algorithm entry point
	panic(&Error{Err: err})
}

// Fail aborts the current engine operation with err. It is the one
// sanctioned way to raise a failure from engine-style code (pipeline
// plumbing) that executes under a deferred Guard; it never returns.
func Fail(err error) {
	fail(err)
}

func must[T any](v T, err error) T {
	if err != nil {
		fail(err)
	}
	return v
}

// IsFederated reports whether a matrix is federated.
func IsFederated(a Mat) bool {
	_, ok := a.(*federated.Matrix)
	return ok
}

// Local returns a local view of a — the identity for dense matrices and a
// privacy-checked consolidation for federated ones (§4.1 pin-into-memory).
func Local(a Mat) *matrix.Dense {
	switch m := a.(type) {
	case *matrix.Dense:
		return m
	case *federated.Matrix:
		return must(m.Consolidate())
	default:
		fail(fmt.Errorf("engine: unknown matrix type %T", a))
		return nil
	}
}

// Free releases worker-side partitions of federated intermediates; it is a
// no-op for local matrices. The release is one deferred rmvar per worker
// for the whole argument list and costs no round trip, so scripts free
// every intermediate at its last use.
func Free(ms ...Mat) {
	var fed []*federated.Matrix
	for _, a := range ms {
		if f, ok := a.(*federated.Matrix); ok {
			fed = append(fed, f)
		}
	}
	if err := federated.Free(fed...); err != nil {
		fail(err)
	}
}

// MatMul computes a %*% b. Federated left inputs keep the product federated
// when row-partitioned (broadcast right-hand side); a federated right input
// is consolidated per §4.2 ("some of them are consolidated in the
// coordinator").
func MatMul(a, b Mat) Mat {
	if done := timeOp("mm"); done != nil {
		defer done()
	}
	switch x := a.(type) {
	case *matrix.Dense:
		return x.MatMul(Local(b))
	case *federated.Matrix:
		fed, local, err := x.MatVec(Local(b))
		if err != nil {
			fail(err)
		}
		if fed != nil {
			return fed
		}
		return local
	default:
		fail(fmt.Errorf("engine: matmul on %T", a))
		return nil
	}
}

// TMatMul computes t(a) %*% b. Aligned federated-federated inputs multiply
// fully federated (the t(P) %*% X pattern of Example 3); a federated left
// with a local right uses sliced broadcasts (the vector-matrix pattern of
// Example 2).
func TMatMul(a, b Mat) Mat {
	if done := timeOp("tmm"); done != nil {
		defer done()
	}
	return queueTMatMul(a, b).Value()
}

// TSMM computes t(x) %*% x (always a local cols x cols aggregate).
func TSMM(x Mat) *matrix.Dense {
	if done := timeOp("tsmm"); done != nil {
		defer done()
	}
	return queueTSMM(x).Value()
}

// MMChain computes t(x) %*% (w * (x %*% v)) fused, for the k columns of v
// at once (w nil or rows x k). A local x takes any w (a federated one is
// consolidated); a federated x takes a nil w or a federated one
// co-partitioned with it, which stays at the workers.
func MMChain(x Mat, v *matrix.Dense, w Mat) *matrix.Dense {
	if done := timeOp("mmchain"); done != nil {
		defer done()
	}
	switch m := x.(type) {
	case *matrix.Dense:
		if w == nil {
			return m.MMChain(v, nil)
		}
		return m.MMChain(v, Local(w))
	case *federated.Matrix:
		switch fw := w.(type) {
		case nil:
			return must(m.MMChain(v, nil))
		case *federated.Matrix:
			return must(m.MMChain(v, fw))
		default:
			fail(fmt.Errorf("engine: mmchain of federated %dx%d needs a federated w co-partitioned with it, have %T %dx%d",
				m.Rows(), m.Cols(), w, w.Rows(), w.Cols()))
			return nil
		}
	default:
		fail(fmt.Errorf("engine: mmchain on %T", x))
		return nil
	}
}

// Colocate places local y beside x: y itself when x is local; when x is
// federated, a federated y row-partitioned like x
// (federated.Matrix.Colocate), so element-wise operations between the two
// run where x lives.
func Colocate(y *matrix.Dense, x Mat) Mat {
	if done := timeOp("colocate"); done != nil {
		defer done()
	}
	switch m := x.(type) {
	case *matrix.Dense:
		return y
	case *federated.Matrix:
		return must(m.Colocate(y))
	default:
		fail(fmt.Errorf("engine: colocate beside %T", x))
		return nil
	}
}

// Transpose computes t(a).
func Transpose(a Mat) Mat {
	if done := timeOp("t"); done != nil {
		defer done()
	}
	switch m := a.(type) {
	case *matrix.Dense:
		return m.Transpose()
	case *federated.Matrix:
		return must(m.Transpose())
	default:
		fail(fmt.Errorf("engine: transpose on %T", a))
		return nil
	}
}

// Binary applies an element-wise binary operation with broadcasting. Any
// combination of local and federated operands is supported; fed-fed inputs
// must be aligned or the second is consolidated (per §4.2).
func Binary(op matrix.BinaryOp, a, b Mat) Mat {
	if done := timeOp("binary"); done != nil {
		defer done()
	}
	switch x := a.(type) {
	case *matrix.Dense:
		if fb, ok := b.(*federated.Matrix); ok {
			// local op fed: execute federated with swapped operands.
			return must(fb.BinaryLocal(op, x, true))
		}
		return x.Binary(op, b.(*matrix.Dense))
	case *federated.Matrix:
		if fb, ok := b.(*federated.Matrix); ok {
			return must(x.Binary(op, fb))
		}
		return must(x.BinaryLocal(op, b.(*matrix.Dense), false))
	default:
		fail(fmt.Errorf("engine: binary on %T", a))
		return nil
	}
}

// BinaryScalar applies an element-wise operation against a scalar; swap
// makes the scalar the left operand.
func BinaryScalar(op matrix.BinaryOp, a Mat, s float64, swap bool) Mat {
	if done := timeOp("binary_scalar"); done != nil {
		defer done()
	}
	switch x := a.(type) {
	case *matrix.Dense:
		return x.BinaryScalar(op, s, swap)
	case *federated.Matrix:
		return must(x.BinaryScalar(op, s, swap))
	default:
		fail(fmt.Errorf("engine: scalar op on %T", a))
		return nil
	}
}

// Unary applies an element-wise unary operation.
func Unary(op matrix.UnaryOp, a Mat) Mat {
	if done := timeOp("unary"); done != nil {
		defer done()
	}
	switch x := a.(type) {
	case *matrix.Dense:
		return x.Unary(op)
	case *federated.Matrix:
		return must(x.Unary(op))
	default:
		fail(fmt.Errorf("engine: unary on %T", a))
		return nil
	}
}

// Softmax applies row-wise softmax.
func Softmax(a Mat) Mat {
	if done := timeOp("softmax"); done != nil {
		defer done()
	}
	switch x := a.(type) {
	case *matrix.Dense:
		return x.Softmax()
	case *federated.Matrix:
		return must(x.Softmax())
	default:
		fail(fmt.Errorf("engine: softmax on %T", a))
		return nil
	}
}

// Agg computes a full aggregate.
func Agg(op matrix.AggOp, a Mat) float64 {
	if done := timeOp("agg"); done != nil {
		defer done()
	}
	return queueAgg(op, a).Value()
}

// Sum computes the sum of all cells.
func Sum(a Mat) float64 { return Agg(matrix.AggSum, a) }

// RowAgg computes per-row aggregates (stays federated on row partitions).
func RowAgg(op matrix.AggOp, a Mat) Mat {
	if done := timeOp("row_agg"); done != nil {
		defer done()
	}
	switch x := a.(type) {
	case *matrix.Dense:
		return x.RowAgg(op)
	case *federated.Matrix:
		fed, local, err := x.RowAgg(op)
		if err != nil {
			fail(err)
		}
		if fed != nil {
			return fed
		}
		return local
	default:
		fail(fmt.Errorf("engine: rowAgg on %T", a))
		return nil
	}
}

// ColAgg computes per-column aggregates as a local 1 x cols vector for
// row-partitioned (and local) inputs.
func ColAgg(op matrix.AggOp, a Mat) Mat {
	if done := timeOp("col_agg"); done != nil {
		defer done()
	}
	switch x := a.(type) {
	case *matrix.Dense:
		return x.ColAgg(op)
	case *federated.Matrix:
		fed, local, err := x.ColAgg(op)
		if err != nil {
			fail(err)
		}
		if local != nil {
			return local
		}
		return fed
	default:
		fail(fmt.Errorf("engine: colAgg on %T", a))
		return nil
	}
}

// RowIndexMax returns the 1-based argmax column per row.
func RowIndexMax(a Mat) Mat {
	if done := timeOp("row_index_max"); done != nil {
		defer done()
	}
	switch x := a.(type) {
	case *matrix.Dense:
		return x.RowIndexMax()
	case *federated.Matrix:
		return must(x.RowIndexMax())
	default:
		fail(fmt.Errorf("engine: rowIndexMax on %T", a))
		return nil
	}
}

// Slice extracts [rowBeg:rowEnd, colBeg:colEnd).
func Slice(a Mat, rowBeg, rowEnd, colBeg, colEnd int) Mat {
	if done := timeOp("slice"); done != nil {
		defer done()
	}
	switch x := a.(type) {
	case *matrix.Dense:
		return x.Slice(rowBeg, rowEnd, colBeg, colEnd)
	case *federated.Matrix:
		return must(x.Slice(rowBeg, rowEnd, colBeg, colEnd))
	default:
		fail(fmt.Errorf("engine: slice on %T", a))
		return nil
	}
}

// Replace substitutes pattern cells.
func Replace(a Mat, pattern, repl float64) Mat {
	if done := timeOp("replace"); done != nil {
		defer done()
	}
	switch x := a.(type) {
	case *matrix.Dense:
		return x.Replace(pattern, repl)
	case *federated.Matrix:
		return must(x.Replace(pattern, repl))
	default:
		fail(fmt.Errorf("engine: replace on %T", a))
		return nil
	}
}

// Convenience element-wise wrappers, mirroring DML operators.

// Add computes a + b.
func Add(a, b Mat) Mat { return Binary(matrix.OpAdd, a, b) }

// Sub computes a - b.
func Sub(a, b Mat) Mat { return Binary(matrix.OpSub, a, b) }

// Mul computes a * b element-wise.
func Mul(a, b Mat) Mat { return Binary(matrix.OpMul, a, b) }

// Div computes a / b element-wise.
func Div(a, b Mat) Mat { return Binary(matrix.OpDiv, a, b) }

// Scale computes a * s.
func Scale(a Mat, s float64) Mat { return BinaryScalar(matrix.OpMul, a, s, false) }
