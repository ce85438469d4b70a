package matrix

import "fmt"

// Slice returns the sub-matrix m[rowBeg:rowEnd, colBeg:colEnd) (half-open,
// zero-based), copied. It implements DML matrix indexing X[:,:].
func (m *Dense) Slice(rowBeg, rowEnd, colBeg, colEnd int) *Dense {
	if rowBeg < 0 || colBeg < 0 || rowEnd > m.rows || colEnd > m.cols ||
		rowBeg > rowEnd || colBeg > colEnd {
		panic(fmt.Sprintf("matrix: slice [%d:%d,%d:%d] out of range for %dx%d",
			rowBeg, rowEnd, colBeg, colEnd, m.rows, m.cols))
	}
	if colBeg == 0 && colEnd == m.cols { // whole rows: one contiguous range
		return &Dense{rows: rowEnd - rowBeg, cols: m.cols, data: copyOf(m.data[rowBeg*m.cols : rowEnd*m.cols])}
	}
	out := NewDense(rowEnd-rowBeg, colEnd-colBeg)
	w := colEnd - colBeg
	for i := rowBeg; i < rowEnd; i++ {
		copy(out.data[(i-rowBeg)*w:(i-rowBeg+1)*w], m.data[i*m.cols+colBeg:i*m.cols+colEnd])
	}
	return out
}

// SliceRows returns rows [beg, end).
func (m *Dense) SliceRows(beg, end int) *Dense { return m.Slice(beg, end, 0, m.cols) }

// SliceCols returns columns [beg, end).
func (m *Dense) SliceCols(beg, end int) *Dense { return m.Slice(0, m.rows, beg, end) }

// SetSlice copies src into m at offset (rowBeg, colBeg), mutating m.
func (m *Dense) SetSlice(rowBeg, colBeg int, src *Dense) {
	if rowBeg+src.rows > m.rows || colBeg+src.cols > m.cols {
		panic("matrix: SetSlice out of range")
	}
	for i := 0; i < src.rows; i++ {
		copy(m.data[(rowBeg+i)*m.cols+colBeg:(rowBeg+i)*m.cols+colBeg+src.cols], src.Row(i))
	}
}

// RBind vertically concatenates the inputs (equal column counts).
func RBind(ms ...*Dense) *Dense {
	if len(ms) == 0 {
		return NewDense(0, 0)
	}
	cols, rows := ms[0].cols, 0
	for _, m := range ms {
		if m.cols != cols {
			panic("matrix: rbind column mismatch")
		}
		rows += m.rows
	}
	out := NewDense(rows, cols)
	off := 0
	for _, m := range ms {
		copy(out.data[off:], m.data)
		off += len(m.data)
	}
	return out
}

// CBind horizontally concatenates the inputs (equal row counts).
func CBind(ms ...*Dense) *Dense {
	if len(ms) == 0 {
		return NewDense(0, 0)
	}
	rows, cols := ms[0].rows, 0
	for _, m := range ms {
		if m.rows != rows {
			panic("matrix: cbind row mismatch")
		}
		cols += m.cols
	}
	out := NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		off := i * cols
		for _, m := range ms {
			copy(out.data[off:off+m.cols], m.Row(i))
			off += m.cols
		}
	}
	return out
}

// RemoveEmptyRows drops all-zero rows (DML removeEmpty margin="rows") and
// returns the compacted matrix together with the kept original row indices.
func (m *Dense) RemoveEmptyRows() (*Dense, []int) {
	keep := make([]int, 0, m.rows)
	for i := 0; i < m.rows; i++ {
		for _, v := range m.Row(i) {
			if v != 0 {
				keep = append(keep, i)
				break
			}
		}
	}
	out := NewDense(len(keep), m.cols)
	for oi, i := range keep {
		copy(out.Row(oi), m.Row(i))
	}
	return out, keep
}

// RemoveEmptyCols drops all-zero columns (DML removeEmpty margin="cols") and
// returns the compacted matrix together with the kept original column indices.
func (m *Dense) RemoveEmptyCols() (*Dense, []int) {
	keep := make([]int, 0, m.cols)
	for j := 0; j < m.cols; j++ {
		for i := 0; i < m.rows; i++ {
			if m.data[i*m.cols+j] != 0 {
				keep = append(keep, j)
				break
			}
		}
	}
	out := NewDense(m.rows, len(keep))
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		orow := out.Row(i)
		for oj, j := range keep {
			orow[oj] = row[j]
		}
	}
	return out, keep
}

// Replace returns a copy with every cell equal to pattern replaced by repl.
// NaN patterns match NaN cells (DML replace semantics).
func (m *Dense) Replace(pattern, repl float64) *Dense {
	isNaN := pattern != pattern
	return m.Apply(func(v float64) float64 {
		if v == pattern || (isNaN && v != v) {
			return repl
		}
		return v
	})
}

// Reshape returns a rows x cols view-copy with identical row-major cell
// order (DML matrix(X, rows, cols)).
func (m *Dense) Reshape(rows, cols int) *Dense {
	if rows*cols != len(m.data) {
		panic(fmt.Sprintf("matrix: reshape %dx%d incompatible with %d cells", rows, cols, len(m.data)))
	}
	out := NewDense(rows, cols)
	copy(out.data, m.data)
	return out
}

// Diag extracts the diagonal of a square matrix as a column vector, or
// expands a vector into a diagonal matrix.
func (m *Dense) Diag() *Dense {
	if m.cols == 1 { // vector -> diagonal matrix
		out := NewDense(m.rows, m.rows)
		for i := 0; i < m.rows; i++ {
			out.data[i*m.rows+i] = m.data[i]
		}
		return out
	}
	if m.rows != m.cols {
		panic("matrix: diag of non-square matrix")
	}
	out := NewDense(m.rows, 1)
	for i := 0; i < m.rows; i++ {
		out.data[i] = m.data[i*m.cols+i]
	}
	return out
}

// SelectRows gathers the given zero-based row indices into a new matrix
// (the permutation/selection primitive behind sampling and shuffling).
func (m *Dense) SelectRows(idx []int) *Dense {
	out := NewDense(len(idx), m.cols)
	for oi, i := range idx {
		copy(out.Row(oi), m.Row(i))
	}
	return out
}
