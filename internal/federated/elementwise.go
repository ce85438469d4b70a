package federated

import (
	"fmt"

	"exdra/internal/fedrpc"
	"exdra/internal/matrix"
)

// Binary applies an element-wise binary operation between two aligned
// (co-partitioned) federated matrices; the output stays federated with the
// same map (ExDRa §4.2: aligned federated intermediates).
func (m *Matrix) Binary(op matrix.BinaryOp, other *Matrix) (*Matrix, error) {
	if m.Rows() != other.Rows() || m.Cols() != other.Cols() {
		// Column-vector broadcast between aligned row-partitioned matrices
		// (e.g. P / rowSums(P)) is also supported when the vector is
		// federated with the same row ranges.
		if !(other.Cols() == 1 && m.Rows() == other.Rows()) {
			return nil, fmt.Errorf("federated: binary %s shape mismatch %dx%d vs %dx%d",
				op, m.Rows(), m.Cols(), other.Rows(), other.Cols())
		}
	}
	sameShape := m.Rows() == other.Rows() && m.Cols() == other.Cols()
	aligned := AlignedRows(m.fm, other.fm)
	if aligned && sameShape && m.Scheme() != RowPartitioned {
		// Column-partitioned / irregular same-shape inputs need exact
		// (two-dimensional) co-partitioning.
		aligned = AlignedExact(m.fm, other.fm)
	}
	if !aligned {
		// Fallback of §4.2: consolidate the second federated input at the
		// coordinator (subject to privacy) and broadcast it back.
		local, err := other.Consolidate()
		if err != nil {
			return nil, fmt.Errorf("federated: unaligned binary %s: %w", op, err)
		}
		return m.BinaryLocal(op, local, false)
	}
	ms, os := m.fm.sorted(), other.fm.sorted()
	outIDs := make([]int64, len(ms))
	for i := range outIDs {
		outIDs[i] = m.c.NewID()
	}
	parts := make([]Partition, len(ms))
	copy(parts, ms)
	err := m.c.deferCall("binary "+op.String(), parts, func(i int, p Partition) []fedrpc.Request {
		return []fedrpc.Request{
			{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
				Opcode: op.String(), Inputs: []int64{p.DataID, os[i].DataID}, Output: outIDs[i]}},
		}
	})
	if err != nil {
		return nil, err
	}
	fm := FedMap{Rows: m.Rows(), Cols: m.Cols()}
	for i, p := range ms {
		fm.Partitions = append(fm.Partitions, Partition{Range: p.Range, Addr: p.Addr, DataID: outIDs[i]})
	}
	return FromMap(m.c, fm)
}

// BinaryLocal applies an element-wise binary operation against a local
// operand, broadcasting either the full operand (row vectors, scalars, and
// full matrices on column partitions) or only the relevant slice per
// partition (column vectors and full matrices on row partitions). When swap
// is true the local operand is the left side (b op m).
func (m *Matrix) BinaryLocal(op matrix.BinaryOp, b *matrix.Dense, swap bool) (*Matrix, error) {
	slice, err := m.broadcastSlicer(b)
	if err != nil {
		return nil, fmt.Errorf("federated: binary %s: %w", op, err)
	}
	outIDs := m.newIDs()
	err = m.c.deferCall("binary "+op.String(), m.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
		bid := m.c.NewID()
		inputs := []int64{p.DataID, bid}
		if swap {
			inputs = []int64{bid, p.DataID}
		}
		return []fedrpc.Request{
			{Type: fedrpc.Put, ID: bid, Data: fedrpc.MatrixPayload(slice(p.Range))},
			{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
				Opcode: op.String(), Inputs: inputs, Output: outIDs[i]}},
			rmvar(bid),
		}
	})
	if err != nil {
		return nil, err
	}
	return m.derive(m.Rows(), m.Cols(), outIDs, func(r Range) Range { return r }), nil
}

// broadcastSlicer decides, from the local operand's shape, what to send to
// each partition: the full operand or the partition-aligned slice.
func (m *Matrix) broadcastSlicer(b *matrix.Dense) (func(Range) *matrix.Dense, error) {
	full := func(Range) *matrix.Dense { return b }
	switch {
	case b.Rows() == 1 && b.Cols() == 1: // scalar-as-matrix
		return full, nil
	case b.Rows() == m.Rows() && b.Cols() == m.Cols(): // same shape: slice both ways
		return func(r Range) *matrix.Dense {
			return b.Slice(r.RowBeg, r.RowEnd, r.ColBeg, r.ColEnd)
		}, nil
	case b.Rows() == m.Rows() && b.Cols() == 1: // column vector: slice rows
		return func(r Range) *matrix.Dense { return b.SliceRows(r.RowBeg, r.RowEnd) }, nil
	case b.Rows() == 1 && b.Cols() == m.Cols(): // row vector: slice cols
		return func(r Range) *matrix.Dense { return b.SliceCols(r.ColBeg, r.ColEnd) }, nil
	default:
		return nil, fmt.Errorf("operand %dx%d incompatible with federated %dx%d",
			b.Rows(), b.Cols(), m.Rows(), m.Cols())
	}
}

// BinaryScalar applies an element-wise operation against a scalar; the
// output stays federated.
func (m *Matrix) BinaryScalar(op matrix.BinaryOp, s float64, swap bool) (*Matrix, error) {
	outIDs := m.newIDs()
	attrs := map[string]string{}
	if swap {
		attrs["swap"] = "1"
	}
	err := m.c.deferCall("binary "+op.String(), m.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
		return []fedrpc.Request{
			{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
				Opcode: op.String(), Inputs: []int64{p.DataID}, Output: outIDs[i],
				Scalars: []float64{s}, Attrs: attrs}},
		}
	})
	if err != nil {
		return nil, err
	}
	return m.derive(m.Rows(), m.Cols(), outIDs, func(r Range) Range { return r }), nil
}

// Unary applies an element-wise unary operation; the output stays federated.
func (m *Matrix) Unary(op matrix.UnaryOp) (*Matrix, error) {
	return m.execPerPartition(op.String(), nil, nil)
}

// Softmax applies row-wise softmax per partition (valid for row-partitioned
// data, where every partition holds complete rows).
func (m *Matrix) Softmax() (*Matrix, error) {
	if m.Scheme() != RowPartitioned {
		return nil, fmt.Errorf("federated: softmax requires row partitioning")
	}
	return m.execPerPartition("softmax", nil, nil)
}

// Replace substitutes pattern cells per partition (DML replace).
func (m *Matrix) Replace(pattern, repl float64) (*Matrix, error) {
	return m.execPerPartition("replace", []float64{pattern, repl}, nil)
}

// execPerPartition runs a shape-preserving single-input instruction on
// every partition, returning a federated result with the same map.
func (m *Matrix) execPerPartition(opcode string, scalars []float64, attrs map[string]string) (*Matrix, error) {
	outIDs := m.newIDs()
	err := m.c.deferCall(opcode, m.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
		return []fedrpc.Request{
			{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
				Opcode: opcode, Inputs: []int64{p.DataID}, Output: outIDs[i],
				Scalars: scalars, Attrs: attrs}},
		}
	})
	if err != nil {
		return nil, err
	}
	return m.derive(m.Rows(), m.Cols(), outIDs, func(r Range) Range { return r }), nil
}

// IfElse computes ifelse(m, a, b) for aligned federated condition and
// locally broadcast arms (1x1 scalars or matching shape).
func (m *Matrix) IfElse(a, b *matrix.Dense) (*Matrix, error) {
	sliceA, err := m.broadcastSlicer(a)
	if err != nil {
		return nil, err
	}
	sliceB, err := m.broadcastSlicer(b)
	if err != nil {
		return nil, err
	}
	outIDs := m.newIDs()
	err = m.c.deferCall("ifelse", m.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
		aid, bid := m.c.NewID(), m.c.NewID()
		return []fedrpc.Request{
			{Type: fedrpc.Put, ID: aid, Data: fedrpc.MatrixPayload(sliceA(p.Range))},
			{Type: fedrpc.Put, ID: bid, Data: fedrpc.MatrixPayload(sliceB(p.Range))},
			{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
				Opcode: "ifelse", Inputs: []int64{p.DataID, aid, bid}, Output: outIDs[i]}},
			rmvar(aid, bid),
		}
	})
	if err != nil {
		return nil, err
	}
	return m.derive(m.Rows(), m.Cols(), outIDs, func(r Range) Range { return r }), nil
}

// CTableFed computes the contingency table of two aligned federated column
// vectors by summing per-partition partial tables at the coordinator (the
// federated ternary ctable of Table 1). Dimensions are capped at rowsCap x
// colsCap, which must cover the value domain.
func CTableFed(a, b *Matrix, rowsCap, colsCap int) (*matrix.Dense, error) {
	if !AlignedRows(a.fm, b.fm) {
		return nil, fmt.Errorf("federated: ctable requires aligned inputs")
	}
	if rowsCap <= 0 || colsCap <= 0 {
		return nil, fmt.Errorf("federated: ctable requires explicit dimension caps")
	}
	as, bs := a.fm.sorted(), b.fm.sorted()
	parts := make([]Partition, len(as))
	copy(parts, as)
	resps, err := a.c.parallelCall("ctable", parts, func(i int, p Partition) []fedrpc.Request {
		oid := a.c.NewID()
		return []fedrpc.Request{
			{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
				Opcode: "ctable", Inputs: []int64{p.DataID, bs[i].DataID}, Output: oid,
				Scalars: []float64{float64(rowsCap), float64(colsCap)}}},
			{Type: fedrpc.Get, ID: oid},
			rmvar(oid),
		}
	})
	if err != nil {
		return nil, err
	}
	out := matrix.NewDense(rowsCap, colsCap)
	for _, rs := range resps {
		out.AddInPlace(rs[1].Data.Matrix())
	}
	return out, nil
}
