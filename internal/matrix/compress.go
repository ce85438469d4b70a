package matrix

// Compressed is a column-wise dictionary-compressed matrix (dense
// dictionary coding, in the spirit of SystemDS' compressed linear algebra
// that ExDRa §4.4 proposes running in federated workers' free cycles).
// Columns with few distinct values — one-hot features, codes, sensor states
// — compress to a small dictionary plus one code per cell.
type Compressed struct {
	rows, cols int
	cols_      []compressedCol
}

type compressedCol struct {
	dict  []float64 // distinct values
	codes []uint32  // row -> dictionary index
}

// Compress converts a dense matrix to the compressed representation. It
// always succeeds; columns with many distinct values simply get large
// dictionaries (see CompressionRatio to decide whether to keep it).
func Compress(m *Dense) *Compressed {
	c := &Compressed{rows: m.rows, cols: m.cols, cols_: make([]compressedCol, m.cols)}
	for j := 0; j < m.cols; j++ {
		idx := map[float64]uint32{}
		col := compressedCol{codes: make([]uint32, m.rows)}
		for i := 0; i < m.rows; i++ {
			v := m.At(i, j)
			code, ok := idx[v]
			if !ok {
				code = uint32(len(col.dict))
				col.dict = append(col.dict, v)
				idx[v] = code
			}
			col.codes[i] = code
		}
		c.cols_[j] = col
	}
	return c
}

// Rows returns the number of rows.
func (c *Compressed) Rows() int { return c.rows }

// Cols returns the number of columns.
func (c *Compressed) Cols() int { return c.cols }

// Decompress materializes the dense matrix.
func (c *Compressed) Decompress() *Dense {
	m := NewDense(c.rows, c.cols)
	for j, col := range c.cols_ {
		for i, code := range col.codes {
			m.data[i*c.cols+j] = col.dict[code]
		}
	}
	return m
}

// SizeBytes estimates the in-memory footprint of the compressed form
// (8 bytes per dictionary entry, 4 per code).
func (c *Compressed) SizeBytes() int {
	total := 0
	for _, col := range c.cols_ {
		total += 8*len(col.dict) + 4*len(col.codes)
	}
	return total
}

// CompressionRatio returns dense bytes / compressed bytes (> 1 means the
// compressed form is smaller).
func (c *Compressed) CompressionRatio() float64 {
	dense := 8 * c.rows * c.cols
	if s := c.SizeBytes(); s > 0 {
		return float64(dense) / float64(s)
	}
	return 1
}
