package engine

import (
	"fmt"

	"exdra/internal/federated"
	"exdra/internal/matrix"
)

// Reads that a script step needs together are queued and then forced as one
// group: each Queue* operation returns a handle at once — on federated input
// its requests wait in the workers' outboxes — and Fetch delivers every
// handle it is given with one exchange per touched worker. A handle's Value
// forces it alone if no Fetch has yet; the eager operations (Agg, ColAgg,
// TMatMul, TSMM) are exactly that. On local input a handle is computed when
// it is queued.

// Handle is a pending read: a *Scalar or a *Dense.
type Handle interface {
	pending() *federated.Value
}

// Scalar is a pending full aggregate.
type Scalar struct {
	fed *federated.Value
	v   float64
}

func (s *Scalar) pending() *federated.Value { return s.fed }

// Value returns the aggregate, fetching it alone if needed.
func (s *Scalar) Value() float64 {
	if s.fed != nil {
		s.v, s.fed = must(s.fed.Get()).At(0, 0), nil
	}
	return s.v
}

// Dense is a pending local matrix: a column aggregate or a product summed at
// the coordinator.
type Dense struct {
	fed *federated.Value
	d   *matrix.Dense
}

func (d *Dense) pending() *federated.Value { return d.fed }

// Value returns the matrix, fetching it alone if needed.
func (d *Dense) Value() *matrix.Dense {
	if d.fed != nil {
		d.d, d.fed = must(d.fed.Get()), nil
	}
	return d.d
}

// Fetch forces the handles together: one exchange per worker that holds a
// share of any of them (federated.Fetch). A failure aborts the operation
// with the first failed read in program order.
func Fetch(hs ...Handle) {
	if done := timeOp("fetch"); done != nil {
		defer done()
	}
	var vs []*federated.Value
	for _, h := range hs {
		if v := h.pending(); v != nil {
			vs = append(vs, v)
		}
	}
	if err := federated.Fetch(vs...); err != nil {
		fail(err)
	}
}

// QueueAgg queues the full aggregate of a (Agg).
func QueueAgg(op matrix.AggOp, a Mat) *Scalar {
	if done := timeOp("agg"); done != nil {
		defer done()
	}
	return queueAgg(op, a)
}

func queueAgg(op matrix.AggOp, a Mat) *Scalar {
	switch x := a.(type) {
	case *matrix.Dense:
		return &Scalar{v: x.Agg(op)}
	case *federated.Matrix:
		return &Scalar{fed: x.QueueAggFull(op)}
	default:
		fail(fmt.Errorf("engine: agg on %T", a))
		return nil
	}
}

// QueueColAgg queues the column aggregates of a as a local 1 x cols vector
// (ColAgg). Only row-partitioned federated data aggregates at the
// coordinator; other layouts are computed and consolidated at once.
func QueueColAgg(op matrix.AggOp, a Mat) *Dense {
	if done := timeOp("col_agg"); done != nil {
		defer done()
	}
	return queueColAgg(op, a)
}

func queueColAgg(op matrix.AggOp, a Mat) *Dense {
	switch x := a.(type) {
	case *matrix.Dense:
		return &Dense{d: x.ColAgg(op)}
	case *federated.Matrix:
		if x.Scheme() == federated.RowPartitioned {
			return &Dense{fed: x.QueueColAgg(op)}
		}
		fed, _, err := x.ColAgg(op)
		if err != nil {
			fail(err)
		}
		defer Free(fed)
		return &Dense{d: Local(fed)}
	default:
		fail(fmt.Errorf("engine: colAgg on %T", a))
		return nil
	}
}

// QueueTMatMul queues t(a) %*% b (TMatMul): co-partitioned federated inputs
// multiply where they live, a federated a with a local b by sliced
// broadcasts.
func QueueTMatMul(a, b Mat) *Dense {
	if done := timeOp("tmm"); done != nil {
		defer done()
	}
	return queueTMatMul(a, b)
}

func queueTMatMul(a, b Mat) *Dense {
	switch x := a.(type) {
	case *matrix.Dense:
		return &Dense{d: x.TMatMul(Local(b))}
	case *federated.Matrix:
		if fb, ok := b.(*federated.Matrix); ok {
			return &Dense{fed: x.QueueAlignedTMM(fb)}
		}
		return &Dense{fed: x.QueueTMatVec(Local(b))}
	default:
		fail(fmt.Errorf("engine: tmatmul on %T", a))
		return nil
	}
}

// QueueTSMM queues t(x) %*% x (TSMM).
func QueueTSMM(x Mat) *Dense {
	if done := timeOp("tsmm"); done != nil {
		defer done()
	}
	return queueTSMM(x)
}

func queueTSMM(x Mat) *Dense {
	switch m := x.(type) {
	case *matrix.Dense:
		return &Dense{d: m.TSMM()}
	case *federated.Matrix:
		return &Dense{fed: m.QueueTSMM()}
	default:
		fail(fmt.Errorf("engine: tsmm on %T", x))
		return nil
	}
}
