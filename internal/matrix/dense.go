// Package matrix implements the dense and sparse linear-algebra kernels that
// back both the local and the federated runtime, mirroring the role of
// SystemDS' local CPU backend in the ExDRa system (SIGMOD 2021).
//
// Matrices are row-major float64. All operations allocate their result unless
// documented otherwise; inputs are never mutated. Heavy kernels (matrix
// multiplication, transpose-self multiplication) are multi-threaded.
package matrix

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is a row-major dense matrix of float64 values.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a zero-initialized rows x cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseData wraps data (row-major, length rows*cols) without copying.
func NewDenseData(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("matrix: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: data}
}

// FromRows builds a matrix from a slice of equally sized rows.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic("matrix: ragged rows")
		}
		copy(m.data[i*c:(i+1)*c], r)
	}
	return m
}

// ColVector builds an n x 1 matrix from values.
func ColVector(values []float64) *Dense {
	m := NewDense(len(values), 1)
	copy(m.data, values)
	return m
}

// RowVector builds a 1 x n matrix from values.
func RowVector(values []float64) *Dense {
	m := NewDense(1, len(values))
	copy(m.data, values)
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Fill returns a rows x cols matrix with every cell set to v.
func Fill(rows, cols int, v float64) *Dense {
	m := NewDense(rows, cols)
	for i := range m.data {
		m.data[i] = v
	}
	return m
}

// Rand returns a rows x cols matrix with uniform values in [lo, hi) drawn
// from rng (deterministic given the rng seed).
func Rand(rng *rand.Rand, rows, cols int, lo, hi float64) *Dense {
	m := NewDense(rows, cols)
	span := hi - lo
	for i := range m.data {
		m.data[i] = lo + span*rng.Float64()
	}
	return m
}

// Randn returns a rows x cols matrix with normal(mean, sd) values.
func Randn(rng *rand.Rand, rows, cols int, mean, sd float64) *Dense {
	m := NewDense(rows, cols)
	for i := range m.data {
		m.data[i] = mean + sd*rng.NormFloat64()
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// Size returns the number of cells.
func (m *Dense) Size() int { return len(m.data) }

// At returns the value at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set stores v at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Data returns the backing row-major slice (aliased, not copied).
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	return &Dense{rows: m.rows, cols: m.cols, data: copyOf(m.data)}
}

// copyOf returns a new slice holding src. A make of len(src) directly
// followed by a copy from a plain variable compiles to one allocation that
// is not cleared first (makeslicecopy), where NewDense clears.
func copyOf(src []float64) []float64 {
	dst := make([]float64, len(src))
	copy(dst, src)
	return dst
}

// String renders small matrices fully and large ones as a summary.
func (m *Dense) String() string {
	if m.rows*m.cols > 64 {
		return fmt.Sprintf("Dense(%dx%d)", m.rows, m.cols)
	}
	s := fmt.Sprintf("Dense(%dx%d)[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%g", m.At(i, j))
		}
	}
	return s + "]"
}

// EqualApprox reports whether m and o have the same shape and all cells are
// within tol of each other (NaN cells compare equal to NaN).
func (m *Dense) EqualApprox(o *Dense, tol float64) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i, v := range m.data {
		w := o.data[i]
		if math.IsNaN(v) && math.IsNaN(w) {
			continue
		}
		if math.Abs(v-w) > tol {
			return false
		}
	}
	return true
}

// Sparsity returns the fraction of non-zero cells.
func (m *Dense) Sparsity() float64 {
	if len(m.data) == 0 {
		return 0
	}
	nnz := 0
	for _, v := range m.data {
		if v != 0 {
			nnz++
		}
	}
	return float64(nnz) / float64(len(m.data))
}
