package federated

import (
	"fmt"

	"exdra/internal/fedrpc"
	"exdra/internal/matrix"
)

// This file implements federated linear algebra (ExDRa §4.2): matrix
// multiplication variants composed from broadcast / sliced-broadcast PUTs,
// per-partition EXEC_INSTs, GETs of partial results, and coordinator-side
// aggregation — exactly the strategies of Example 2 in the paper. Each
// federated operation is one request batch per worker, with broadcast
// intermediates cleaned up via rmvar in the same batch; operations whose
// result stays federated buffer their batch (deferCall) and cost no round
// trip of their own, operations that return a value queue it as a read and
// force it (fetch.go), alone or with other reads.

// MatVec computes X %*% v for local v (matrix-vector, or matrix-matrix with
// a small right-hand side). For row-partitioned X the full v is broadcast
// and the output remains federated (logical rbind of the partition
// results). For column-partitioned X, v is slice-broadcast by column ranges
// and the partial n x k products are summed at the coordinator, yielding a
// local result. Exactly one of the two results is non-nil.
func (m *Matrix) MatVec(v *matrix.Dense) (*Matrix, *matrix.Dense, error) {
	if v.Rows() != m.Cols() {
		return nil, nil, fmt.Errorf("federated: matvec %dx%d by %dx%d", m.Rows(), m.Cols(), v.Rows(), v.Cols())
	}
	switch m.Scheme() {
	case RowPartitioned:
		outIDs := m.newIDs()
		err := m.c.deferCall("matvec", m.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
			bid := m.c.NewID()
			return []fedrpc.Request{
				{Type: fedrpc.Put, ID: bid, Data: fedrpc.MatrixPayload(v)},
				{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
					Opcode: "mm", Inputs: []int64{p.DataID, bid}, Output: outIDs[i]}},
				rmvar(bid),
			}
		})
		if err != nil {
			return nil, nil, err
		}
		out := m.derive(m.Rows(), v.Cols(), outIDs, func(r Range) Range {
			return Range{RowBeg: r.RowBeg, RowEnd: r.RowEnd, ColBeg: 0, ColEnd: v.Cols()}
		})
		return out, nil, nil
	case ColPartitioned:
		local, err := m.QueueMatVec(v).Get()
		return nil, local, err
	default:
		return nil, nil, fmt.Errorf("federated: matvec on irregular partitioning unsupported")
	}
}

// QueueMatVec is MatVec of column-partitioned data as a pending read
// (Fetch); its value is the local rows x k sum. On row partitions the
// product stays federated and is no read.
func (m *Matrix) QueueMatVec(v *matrix.Dense) *Value {
	if m.Scheme() != ColPartitioned || v.Rows() != m.Cols() {
		return failedValue("matvec", fmt.Errorf("federated: a matvec read needs column partitioning and %d rows, have %s and %dx%d",
			m.Cols(), m.Scheme(), v.Rows(), v.Cols()))
	}
	return m.c.queue("matvec", m.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
		bid, oid := m.c.NewID(), m.c.NewID()
		vs := v.SliceRows(p.Range.ColBeg, p.Range.ColEnd)
		return []fedrpc.Request{
			{Type: fedrpc.Put, ID: bid, Data: fedrpc.MatrixPayload(vs)},
			{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
				Opcode: "mm", Inputs: []int64{p.DataID, bid}, Output: oid}},
			{Type: fedrpc.Get, ID: oid},
			rmvar(bid, oid),
		}
	}, func(resps [][]fedrpc.Response) (*matrix.Dense, error) {
		sum := matrix.NewDense(m.Rows(), v.Cols())
		for _, rs := range resps {
			sum.AddInPlace(rs[2].Data.Matrix())
		}
		return sum, nil
	})
}

// QueueTMatVec computes t(X) %*% b for local b with nrow(b) == nrow(X) —
// the vector-matrix pattern of Example 2 — as a pending read (Fetch). For
// row-partitioned X, b is slice-broadcast by row ranges; partial cols x k
// results are summed at the coordinator.
func (m *Matrix) QueueTMatVec(b *matrix.Dense) *Value {
	if b.Rows() != m.Rows() {
		return failedValue("tmatvec", fmt.Errorf("federated: tmatvec %dx%d by %dx%d", m.Rows(), m.Cols(), b.Rows(), b.Cols()))
	}
	switch m.Scheme() {
	case RowPartitioned:
		return m.c.queue("tmatvec", m.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
			bid, oid := m.c.NewID(), m.c.NewID()
			bs := b.SliceRows(p.Range.RowBeg, p.Range.RowEnd)
			return []fedrpc.Request{
				{Type: fedrpc.Put, ID: bid, Data: fedrpc.MatrixPayload(bs)},
				{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
					Opcode: "tmm", Inputs: []int64{p.DataID, bid}, Output: oid}},
				{Type: fedrpc.Get, ID: oid},
				rmvar(bid, oid),
			}
		}, func(resps [][]fedrpc.Response) (*matrix.Dense, error) {
			sum := matrix.NewDense(m.Cols(), b.Cols())
			for _, rs := range resps {
				sum.AddInPlace(rs[2].Data.Matrix())
			}
			return sum, nil
		})
	case ColPartitioned:
		// Each partition computes t(X_j) %*% b over all rows; results stack
		// by column ranges.
		return m.c.queue("tmatvec", m.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
			bid, oid := m.c.NewID(), m.c.NewID()
			return []fedrpc.Request{
				{Type: fedrpc.Put, ID: bid, Data: fedrpc.MatrixPayload(b)},
				{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
					Opcode: "tmm", Inputs: []int64{p.DataID, bid}, Output: oid}},
				{Type: fedrpc.Get, ID: oid},
				rmvar(bid, oid),
			}
		}, func(resps [][]fedrpc.Response) (*matrix.Dense, error) {
			out := matrix.NewDense(m.Cols(), b.Cols())
			for i, rs := range resps {
				out.SetSlice(m.fm.Partitions[i].Range.ColBeg, 0, rs[2].Data.Matrix())
			}
			return out, nil
		})
	default:
		return failedValue("tmatvec", fmt.Errorf("federated: tmatvec on irregular partitioning unsupported"))
	}
}

// QueueTSMM computes t(X) %*% X as a pending read (Fetch) by summing
// per-partition tsmm partials at the coordinator (row-partitioned only; the
// result is a cols x cols aggregate).
func (m *Matrix) QueueTSMM() *Value {
	if m.Scheme() != RowPartitioned {
		return failedValue("tsmm", fmt.Errorf("federated: tsmm requires row partitioning, have %s", m.Scheme()))
	}
	return m.c.queue("tsmm", m.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
		oid := m.c.NewID()
		return []fedrpc.Request{
			{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
				Opcode: "tsmm", Inputs: []int64{p.DataID}, Output: oid}},
			{Type: fedrpc.Get, ID: oid},
			rmvar(oid),
		}
	}, func(resps [][]fedrpc.Response) (*matrix.Dense, error) {
		sum := matrix.NewDense(m.Cols(), m.Cols())
		for _, rs := range resps {
			sum.AddInPlace(rs[1].Data.Matrix())
		}
		return sum, nil
	})
}

// MMChain computes the fused t(X) %*% (w * (X %*% v)) for k right-hand
// sides at once: v is cols x k, and w is nil or a federated rows x k matrix
// co-partitioned with X, so each worker's w partition is referenced by ID
// where it already lives (the pairing of QueueAlignedTMM). One batch per worker
// — PUT v, mmchain, GET, rmvar — and the coordinator sums the cols x k
// partials: the inner pattern of LM (k = 1, no w) and of MLogReg (one
// column per class, its weights resident at the workers).
func (m *Matrix) MMChain(v *matrix.Dense, w *Matrix) (*matrix.Dense, error) {
	return m.QueueMMChain(v, w).Get()
}

// QueueMMChain is MMChain as a pending read (Fetch).
func (m *Matrix) QueueMMChain(v *matrix.Dense, w *Matrix) *Value {
	if m.Scheme() != RowPartitioned {
		return failedValue("mmchain", fmt.Errorf("federated: mmchain requires row partitioning, X is %s", m.Scheme()))
	}
	if v.Rows() != m.Cols() || v.Cols() < 1 {
		return failedValue("mmchain", fmt.Errorf("federated: mmchain v is %dx%d, want %dxk for X %dx%d",
			v.Rows(), v.Cols(), m.Cols(), m.Rows(), m.Cols()))
	}
	parts, ws := m.fm.Partitions, []Partition(nil)
	if w != nil {
		if w.Scheme() != RowPartitioned || !AlignedRows(m.fm, w.fm) || w.Cols() != v.Cols() {
			return failedValue("mmchain", fmt.Errorf("federated: mmchain w is %dx%d %s in %d partitions, want %dx%d co-partitioned with X %dx%d %s in %d partitions",
				w.Rows(), w.Cols(), w.Scheme(), len(w.fm.Partitions), m.Rows(), v.Cols(),
				m.Rows(), m.Cols(), m.Scheme(), len(m.fm.Partitions)))
		}
		parts, ws = m.fm.sorted(), w.fm.sorted()
	}
	return m.c.queue("mmchain", parts, func(i int, p Partition) []fedrpc.Request {
		vid, oid := m.c.NewID(), m.c.NewID()
		inputs := []int64{p.DataID, vid}
		if w != nil {
			inputs = append(inputs, ws[i].DataID)
		}
		return []fedrpc.Request{
			{Type: fedrpc.Put, ID: vid, Data: fedrpc.MatrixPayload(v)},
			{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
				Opcode: "mmchain", Inputs: inputs, Output: oid}},
			{Type: fedrpc.Get, ID: oid},
			rmvar(vid, oid),
		}
	}, func(resps [][]fedrpc.Response) (*matrix.Dense, error) {
		sum := matrix.NewDense(m.Cols(), v.Cols())
		for _, rs := range resps {
			sum.AddInPlace(rs[2].Data.Matrix())
		}
		return sum, nil
	})
}

// QueueAlignedTMM computes t(P) %*% X for two co-partitioned federated
// matrices (e.g. the K-Means centroid update of Example 3) as a pending read
// (Fetch): each worker multiplies its aligned partitions locally, and the
// coordinator sums the aggregates.
func (p *Matrix) QueueAlignedTMM(x *Matrix) *Value {
	if !AlignedRows(p.fm, x.fm) {
		return failedValue("alignedTMM", fmt.Errorf("federated: matrices are not co-partitioned"))
	}
	ps, xs := p.fm.sorted(), x.fm.sorted()
	return p.c.queue("alignedTMM", ps, func(i int, pp Partition) []fedrpc.Request {
		oid := p.c.NewID()
		return []fedrpc.Request{
			{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
				Opcode: "tmm", Inputs: []int64{pp.DataID, xs[i].DataID}, Output: oid}},
			{Type: fedrpc.Get, ID: oid},
			rmvar(oid),
		}
	}, func(resps [][]fedrpc.Response) (*matrix.Dense, error) {
		sum := matrix.NewDense(p.Cols(), x.Cols())
		for _, rs := range resps {
			sum.AddInPlace(rs[1].Data.Matrix())
		}
		return sum, nil
	})
}

// Transpose transposes each partition in place at its worker and flips the
// federation map, turning row partitioning into column partitioning and
// vice versa.
func (m *Matrix) Transpose() (*Matrix, error) {
	outIDs := m.newIDs()
	err := m.c.deferCall("transpose", m.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
		return []fedrpc.Request{
			{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
				Opcode: "t", Inputs: []int64{p.DataID}, Output: outIDs[i]}},
		}
	})
	if err != nil {
		return nil, err
	}
	out := m.derive(m.Cols(), m.Rows(), outIDs, func(r Range) Range {
		return Range{RowBeg: r.ColBeg, RowEnd: r.ColEnd, ColBeg: r.RowBeg, ColEnd: r.RowEnd}
	})
	return out, nil
}
