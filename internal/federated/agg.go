package federated

import (
	"fmt"

	"exdra/internal/fedrpc"
	"exdra/internal/matrix"
)

// AggFull computes a full aggregation (sum, min, max, mean, var, sd) over
// the federated matrix. Workers return partial aggregation tuples
// (sum, sumsq, min, max, n) which the coordinator combines — only
// aggregates travel, never raw data.
func (m *Matrix) AggFull(op matrix.AggOp) (float64, error) {
	v, err := m.QueueAggFull(op).Get()
	if err != nil {
		return 0, err
	}
	return v.At(0, 0), nil
}

// QueueAggFull is AggFull as a pending read (Fetch); its value is 1 x 1.
func (m *Matrix) QueueAggFull(op matrix.AggOp) *Value {
	return m.c.queue("agg "+op.String(), m.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
		oid := m.c.NewID()
		return []fedrpc.Request{
			{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
				Opcode: "ua_partial", Inputs: []int64{p.DataID}, Output: oid}},
			{Type: fedrpc.Get, ID: oid},
			rmvar(oid),
		}
	}, func(resps [][]fedrpc.Response) (*matrix.Dense, error) {
		n := len(resps)
		sums, sumSqs, mins, maxs, counts := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]int, n)
		for i, rs := range resps {
			t := rs[1].Data.Matrix()
			sums[i], sumSqs[i], mins[i], maxs[i], counts[i] = t.At(0, 0), t.At(0, 1), t.At(0, 2), t.At(0, 3), int(t.At(0, 4))
		}
		return matrix.Fill(1, 1, matrix.CombinePartialAggs(op, sums, sumSqs, mins, maxs, counts)), nil
	})
}

// Sum returns the sum of all cells.
func (m *Matrix) Sum() (float64, error) { return m.AggFull(matrix.AggSum) }

// RowAgg computes per-row aggregates. For row-partitioned data the result
// stays federated (each worker owns complete rows); for column-partitioned
// data, per-partition partials are combined at the coordinator into a local
// rows x 1 vector. Exactly one of the results is non-nil.
func (m *Matrix) RowAgg(op matrix.AggOp) (*Matrix, *matrix.Dense, error) {
	switch m.Scheme() {
	case RowPartitioned:
		outIDs := m.newIDs()
		err := m.c.deferCall("rowAgg "+op.String(), m.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
			return []fedrpc.Request{
				{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
					Opcode: "uar_" + op.String(), Inputs: []int64{p.DataID}, Output: outIDs[i]}},
			}
		})
		if err != nil {
			return nil, nil, err
		}
		out := m.derive(m.Rows(), 1, outIDs, func(r Range) Range {
			return Range{RowBeg: r.RowBeg, RowEnd: r.RowEnd, ColBeg: 0, ColEnd: 1}
		})
		return out, nil, nil
	case ColPartitioned:
		// Transposed problem: combine per-partition column aggregates of
		// the transposed view — equivalently, fetch per-partition row
		// partials and merge. Only sum/min/max/mean compose from row
		// partials without sumsq; use the 5-tuple per row.
		local, err := m.QueueRowAgg(op).Get()
		return nil, local, err
	default:
		return nil, nil, fmt.Errorf("federated: rowAgg on irregular partitioning unsupported")
	}
}

// QueueRowAgg is RowAgg of column-partitioned data as a pending read
// (Fetch): per-partition rows x 5 partial tuples combined into the local
// rows x 1 vector. On row partitions the result stays federated and is no
// read.
func (m *Matrix) QueueRowAgg(op matrix.AggOp) *Value {
	name := "rowAgg " + op.String()
	if m.Scheme() != ColPartitioned {
		return failedValue(name, fmt.Errorf("federated: a row aggregate read needs column partitioning, have %s", m.Scheme()))
	}
	return m.c.queue(name, m.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
		// Partial tuples per row: transpose then uac_partial gives 5 x rows.
		tid, oid := m.c.NewID(), m.c.NewID()
		return []fedrpc.Request{
			{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
				Opcode: "t", Inputs: []int64{p.DataID}, Output: tid}},
			{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
				Opcode: "uac_partial", Inputs: []int64{tid}, Output: oid}},
			{Type: fedrpc.Get, ID: oid},
			rmvar(tid, oid),
		}
	}, func(resps [][]fedrpc.Response) (*matrix.Dense, error) {
		return combineTupleColumns(op, resps, m.Rows(), func(i int) *matrix.Dense {
			return resps[i][2].Data.Matrix()
		})
	})
}

// ColAgg computes per-column aggregates. For row-partitioned data the
// coordinator combines per-partition 5 x cols partial tuples into a local
// 1 x cols vector; for column-partitioned data the result stays federated.
func (m *Matrix) ColAgg(op matrix.AggOp) (*Matrix, *matrix.Dense, error) {
	switch m.Scheme() {
	case RowPartitioned:
		local, err := m.QueueColAgg(op).Get()
		if err != nil {
			return nil, nil, err
		}
		return nil, local, nil
	case ColPartitioned:
		// Per partition: transpose, aggregate the rows of the transposed
		// view (a colrange x 1 vector), and transpose that back so the
		// worker-held object matches the 1 x colrange map entry.
		outIDs := m.newIDs()
		err := m.c.deferCall("colAgg "+op.String(), m.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
			tid, vid := m.c.NewID(), m.c.NewID()
			return []fedrpc.Request{
				{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
					Opcode: "t", Inputs: []int64{p.DataID}, Output: tid}},
				{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
					Opcode: "uar_" + op.String(), Inputs: []int64{tid}, Output: vid}},
				{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
					Opcode: "t", Inputs: []int64{vid}, Output: outIDs[i]}},
				rmvar(tid, vid),
			}
		})
		if err != nil {
			return nil, nil, err
		}
		out := m.derive(1, m.Cols(), outIDs, func(r Range) Range {
			return Range{RowBeg: 0, RowEnd: 1, ColBeg: r.ColBeg, ColEnd: r.ColEnd}
		})
		return out, nil, nil
	default:
		return nil, nil, fmt.Errorf("federated: colAgg on irregular partitioning unsupported")
	}
}

// QueueColAgg is ColAgg of row-partitioned data as a pending read (Fetch);
// its value is the local 1 x cols vector.
func (m *Matrix) QueueColAgg(op matrix.AggOp) *Value {
	name := "colAgg " + op.String()
	if m.Scheme() != RowPartitioned {
		return failedValue(name, fmt.Errorf("federated: a column aggregate read needs row partitioning, have %s", m.Scheme()))
	}
	return m.c.queue(name, m.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
		oid := m.c.NewID()
		return []fedrpc.Request{
			{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
				Opcode: "uac_partial", Inputs: []int64{p.DataID}, Output: oid}},
			{Type: fedrpc.Get, ID: oid},
			rmvar(oid),
		}
	}, func(resps [][]fedrpc.Response) (*matrix.Dense, error) {
		local, err := combineTupleColumns(op, resps, m.Cols(), func(i int) *matrix.Dense {
			return resps[i][1].Data.Matrix()
		})
		if err != nil {
			return nil, err
		}
		return local.Transpose(), nil
	})
}

// combineTupleColumns merges per-partition 5 x n tuple matrices
// (sum, sumsq, min, max, count rows) into the final aggregate vector n x 1.
func combineTupleColumns(op matrix.AggOp, resps [][]fedrpc.Response, n int, tuple func(i int) *matrix.Dense) (*matrix.Dense, error) {
	out := matrix.NewDense(n, 1)
	k := len(resps)
	sums := make([]float64, k)
	sumSqs := make([]float64, k)
	mins := make([]float64, k)
	maxs := make([]float64, k)
	counts := make([]int, k)
	for j := 0; j < n; j++ {
		for i := 0; i < k; i++ {
			t := tuple(i)
			if t.Cols() != n || t.Rows() != 5 {
				return nil, fmt.Errorf("federated: partial tuple is %dx%d, want 5x%d", t.Rows(), t.Cols(), n)
			}
			sums[i], sumSqs[i], mins[i], maxs[i], counts[i] = t.At(0, j), t.At(1, j), t.At(2, j), t.At(3, j), int(t.At(4, j))
		}
		out.Set(j, 0, matrix.CombinePartialAggs(op, sums, sumSqs, mins, maxs, counts))
	}
	return out, nil
}

// RowIndexMax returns the 1-based argmax column per row as a federated
// vector (row-partitioned data only).
func (m *Matrix) RowIndexMax() (*Matrix, error) {
	if m.Scheme() != RowPartitioned {
		return nil, fmt.Errorf("federated: rowIndexMax requires row partitioning")
	}
	outIDs := m.newIDs()
	err := m.c.deferCall("rowIndexMax", m.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
		return []fedrpc.Request{
			{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
				Opcode: "uar_indexmax", Inputs: []int64{p.DataID}, Output: outIDs[i]}},
		}
	})
	if err != nil {
		return nil, err
	}
	out := m.derive(m.Rows(), 1, outIDs, func(r Range) Range {
		return Range{RowBeg: r.RowBeg, RowEnd: r.RowEnd, ColBeg: 0, ColEnd: 1}
	})
	return out, nil
}

// Slice extracts the federated sub-matrix [rowBeg:rowEnd, colBeg:colEnd)
// (DML matrix indexing X[:,:]). Only partitions overlapping the requested
// range participate; each slices its intersection locally and the result
// stays federated.
func (m *Matrix) Slice(rowBeg, rowEnd, colBeg, colEnd int) (*Matrix, error) {
	if rowBeg < 0 || colBeg < 0 || rowEnd > m.Rows() || colEnd > m.Cols() ||
		rowBeg >= rowEnd || colBeg >= colEnd {
		return nil, fmt.Errorf("federated: slice [%d:%d,%d:%d] out of range for %dx%d",
			rowBeg, rowEnd, colBeg, colEnd, m.Rows(), m.Cols())
	}
	var parts []Partition
	var rels []Range
	for _, p := range m.fm.Partitions {
		r := p.Range
		irb, ire := maxInt(rowBeg, r.RowBeg), minInt(rowEnd, r.RowEnd)
		icb, ice := maxInt(colBeg, r.ColBeg), minInt(colEnd, r.ColEnd)
		if irb >= ire || icb >= ice {
			continue
		}
		parts = append(parts, p)
		rels = append(rels, Range{
			RowBeg: irb - r.RowBeg, RowEnd: ire - r.RowBeg,
			ColBeg: icb - r.ColBeg, ColEnd: ice - r.ColBeg,
		})
	}
	outIDs := make([]int64, len(parts))
	for i := range outIDs {
		outIDs[i] = m.c.NewID()
	}
	err := m.c.deferCall("slice", parts, func(i int, p Partition) []fedrpc.Request {
		rel := rels[i]
		return []fedrpc.Request{
			{Type: fedrpc.ExecInst, Inst: &fedrpc.Instruction{
				Opcode: "rightIndex", Inputs: []int64{p.DataID}, Output: outIDs[i],
				Scalars: []float64{float64(rel.RowBeg), float64(rel.RowEnd), float64(rel.ColBeg), float64(rel.ColEnd)}}},
		}
	})
	if err != nil {
		return nil, err
	}
	fm := FedMap{Rows: rowEnd - rowBeg, Cols: colEnd - colBeg}
	for i, p := range parts {
		abs := Range{
			RowBeg: p.Range.RowBeg + rels[i].RowBeg - rowBeg,
			RowEnd: p.Range.RowBeg + rels[i].RowEnd - rowBeg,
			ColBeg: p.Range.ColBeg + rels[i].ColBeg - colBeg,
			ColEnd: p.Range.ColBeg + rels[i].ColEnd - colBeg,
		}
		fm.Partitions = append(fm.Partitions, Partition{Range: abs, Addr: p.Addr, DataID: outIDs[i]})
	}
	return FromMap(m.c, fm)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
