package matrix

import (
	"fmt"
	"math"
	"math/bits"
)

// AggOp identifies a full or row/column aggregation, mirroring the aggregate
// federated instructions of ExDRa Table 1.
type AggOp int

// Supported aggregation operations.
const (
	AggSum AggOp = iota
	AggMin
	AggMax
	AggMean
	AggVar
	AggSD
	AggSumSq
)

// String returns the DML-style opcode for the aggregation.
func (op AggOp) String() string {
	names := [...]string{"sum", "min", "max", "mean", "var", "sd", "sumsq"}
	if int(op) < len(names) {
		return names[op]
	}
	return fmt.Sprintf("agg(%d)", int(op))
}

// Stats is a set of the partial statistics every aggregate is computed
// from. A partial holds the selected statistics one per row, in the order
// sum, sum of squares, minimum, maximum.
type Stats uint8

// The partial statistics.
const (
	StatSum Stats = 1 << iota
	StatSumSq
	StatMin
	StatMax
	// AllStats selects every statistic: the tuple of an op-less partial.
	AllStats = StatSum | StatSumSq | StatMin | StatMax
)

// Stats returns the statistics op reads: sums for sum and mean, sums and
// sums of squares for var and sd, minima for min and maxima for max.
func (op AggOp) Stats() Stats {
	switch op {
	case AggSum, AggMean:
		return StatSum
	case AggVar, AggSD:
		return StatSum | StatSumSq
	case AggSumSq:
		return StatSumSq
	case AggMin:
		return StatMin
	case AggMax:
		return StatMax
	default:
		panic("matrix: unknown agg op")
	}
}

// Len returns how many statistics s selects: the rows of its partials.
func (s Stats) Len() int { return bits.OnesCount8(uint8(s)) }

// stats holds the statistics of one set of cells. Those a kernel was not
// asked for stay at their identities 0, 0, +Inf and -Inf.
type stats struct{ sum, sumSq, mn, mx float64 }

func emptyStats() stats { return stats{mn: math.Inf(1), mx: math.Inf(-1)} }

func (s *stats) merge(o stats) {
	s.sum += o.sum
	s.sumSq += o.sumSq
	if o.mn < s.mn {
		s.mn = o.mn
	}
	if o.mx > s.mx {
		s.mx = o.mx
	}
}

// result returns op's value over n cells with statistics s.
func (s stats) result(op AggOp, n int) float64 {
	switch op {
	case AggSum:
		return s.sum
	case AggMin:
		return s.mn
	case AggMax:
		return s.mx
	case AggMean:
		return s.sum / float64(n)
	case AggVar:
		n := float64(n)
		return (s.sumSq - s.sum*s.sum/n) / (n - 1)
	case AggSD:
		n := float64(n)
		return math.Sqrt((s.sumSq - s.sum*s.sum/n) / (n - 1))
	case AggSumSq:
		return s.sumSq
	default:
		panic("matrix: unknown agg op")
	}
}

// fullSweep is the cells one sweep of minAVX2 and maxAVX2 takes. Shorter
// cell sets, such as the narrow rows RowAgg passes, stay on the Go loops.
const fullSweep = 16

// fullStats computes the statistics sel selects over d, each as one chain in
// data order, one pass per statistic set. Sums add; minima keep v < lo and
// maxima v > hi, so NaN never becomes an extreme and the first of -0 and +0
// is kept.
//
// On the AVX2 path the sums are the same chains in assembly, and minima and
// maxima run over lanes that merge by value: that value is the chain's
// unless it is zero, where the chain keeps the first zero in data order, so
// a zero extreme is read back from the cells.
func fullStats(d []float64, sel Stats) stats {
	s := emptyStats()
	vec := useAVX2 && len(d) >= fullSweep
	if sel&StatSumSq != 0 {
		if vec {
			s.sum, s.sumSq = sumSqAVX2(&d[0], len(d))
		} else {
			sum, sq := 0.0, 0.0
			for _, v := range d {
				sum += v
				sq += v * v
			}
			s.sum, s.sumSq = sum, sq
		}
	} else if sel&StatSum != 0 {
		if vec {
			s.sum = sumAVX2(&d[0], len(d))
		} else {
			sum := 0.0
			for _, v := range d {
				sum += v
			}
			s.sum = sum
		}
	}
	if sel&StatMin != 0 {
		lo, rest := s.mn, d
		if vec {
			n := len(d) &^ (fullSweep - 1)
			lo, rest = minAVX2(&d[0], n), d[n:]
		}
		for _, v := range rest {
			if v < lo {
				lo = v
			}
		}
		if vec && lo == 0 {
			lo = firstZero(d)
		}
		s.mn = lo
	}
	if sel&StatMax != 0 {
		hi, rest := s.mx, d
		if vec {
			n := len(d) &^ (fullSweep - 1)
			hi, rest = maxAVX2(&d[0], n), d[n:]
		}
		for _, v := range rest {
			if v > hi {
				hi = v
			}
		}
		if vec && hi == 0 {
			hi = firstZero(d)
		}
		s.mx = hi
	}
	return s
}

// firstZero returns the first of d's cells that is -0 or +0; d has one.
func firstZero(d []float64) float64 {
	for _, v := range d {
		if v == 0 {
			return v
		}
	}
	panic("matrix: no zero cell")
}

// Agg computes a full aggregation over all cells.
func (m *Dense) Agg(op AggOp) float64 {
	return fullStats(m.data, op.Stats()).result(op, len(m.data))
}

// Sum returns the sum of all cells.
func (m *Dense) Sum() float64 { return m.Agg(AggSum) }

// Min returns the minimum cell value.
func (m *Dense) Min() float64 { return m.Agg(AggMin) }

// Max returns the maximum cell value.
func (m *Dense) Max() float64 { return m.Agg(AggMax) }

// Mean returns the mean of all cells.
func (m *Dense) Mean() float64 { return m.Agg(AggMean) }

// RowAgg aggregates each row, returning a rows x 1 vector.
func (m *Dense) RowAgg(op AggOp) *Dense {
	out := NewDense(m.rows, 1)
	sel := op.Stats()
	parallelFor(m.rows, m.cols, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out.data[i] = fullStats(m.Row(i), sel).result(op, m.cols)
		}
	})
	return out
}

func filled(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// The column kernels fold the row-major rows of d, as wide as their
// accumulators, into those accumulators four rows per sweep. Every column
// keeps row order: s = s + v0 + v1 + v2 + v3 is four sequential adds, and
// an extreme compares the four cells in turn. On the AVX2 path the whole
// sweeps run in assembly, one lane per column, and the Go loops take the
// last rows.

// vecRows returns how many rows of d, c cells each, the AVX2 column
// kernels take: its whole sweeps of four, or none off the AVX2 path.
func vecRows(d []float64, c int) int {
	if !useAVX2 {
		return 0
	}
	return len(d) / c &^ 3
}

func colSums(d, sum []float64) {
	c := len(sum)
	if n := vecRows(d, c); n > 0 {
		colSumsAVX2(&d[0], c, n, &sum[0])
		d = d[n*c:]
	}
	for ; len(d) >= 4*c; d = d[4*c:] {
		r0, r1, r2, r3 := d[:c], d[c:][:c], d[2*c:][:c], d[3*c:][:c]
		for j, s := range sum {
			sum[j] = s + r0[j] + r1[j] + r2[j] + r3[j]
		}
	}
	for ; len(d) > 0; d = d[c:] {
		r := d[:c]
		for j, s := range sum {
			sum[j] = s + r[j]
		}
	}
}

func colMoments(d, sum, sq []float64) {
	c := len(sum)
	sq = sq[:c]
	if n := vecRows(d, c); n > 0 {
		colMomentsAVX2(&d[0], c, n, &sum[0], &sq[0])
		d = d[n*c:]
	}
	for ; len(d) >= 4*c; d = d[4*c:] {
		r0, r1, r2, r3 := d[:c], d[c:][:c], d[2*c:][:c], d[3*c:][:c]
		for j, s := range sum {
			v0, v1, v2, v3 := r0[j], r1[j], r2[j], r3[j]
			sum[j] = s + v0 + v1 + v2 + v3
			sq[j] = sq[j] + v0*v0 + v1*v1 + v2*v2 + v3*v3
		}
	}
	for ; len(d) > 0; d = d[c:] {
		r := d[:c]
		for j, s := range sum {
			v := r[j]
			sum[j] = s + v
			sq[j] = sq[j] + v*v
		}
	}
}

func colMins(d, mn []float64) {
	c := len(mn)
	if n := vecRows(d, c); n > 0 {
		colMinsAVX2(&d[0], c, n, &mn[0])
		d = d[n*c:]
	}
	for ; len(d) >= 4*c; d = d[4*c:] {
		r0, r1, r2, r3 := d[:c], d[c:][:c], d[2*c:][:c], d[3*c:][:c]
		for j, lo := range mn {
			mn[j] = min4(lo, r0[j], r1[j], r2[j], r3[j])
		}
	}
	for ; len(d) > 0; d = d[c:] {
		r := d[:c]
		for j, lo := range mn {
			if v := r[j]; v < lo {
				mn[j] = v
			}
		}
	}
}

func colMaxs(d, mx []float64) {
	c := len(mx)
	if n := vecRows(d, c); n > 0 {
		colMaxsAVX2(&d[0], c, n, &mx[0])
		d = d[n*c:]
	}
	for ; len(d) >= 4*c; d = d[4*c:] {
		r0, r1, r2, r3 := d[:c], d[c:][:c], d[2*c:][:c], d[3*c:][:c]
		for j, hi := range mx {
			mx[j] = max4(hi, r0[j], r1[j], r2[j], r3[j])
		}
	}
	for ; len(d) > 0; d = d[c:] {
		r := d[:c]
		for j, hi := range mx {
			if v := r[j]; v > hi {
				mx[j] = v
			}
		}
	}
}

// min4 returns the least of lo, v0, v1, v2 and v3, compared in that order
// by v < lo.
func min4(lo, v0, v1, v2, v3 float64) float64 {
	if v0 < lo {
		lo = v0
	}
	if v1 < lo {
		lo = v1
	}
	if v2 < lo {
		lo = v2
	}
	if v3 < lo {
		lo = v3
	}
	return lo
}

// max4 returns the greatest of hi, v0, v1, v2 and v3, compared in that
// order by v > hi.
func max4(hi, v0, v1, v2, v3 float64) float64 {
	if v0 > hi {
		hi = v0
	}
	if v1 > hi {
		hi = v1
	}
	if v2 > hi {
		hi = v2
	}
	if v3 > hi {
		hi = v3
	}
	return hi
}

// ColAgg aggregates each column, returning a 1 x cols vector.
func (m *Dense) ColAgg(op AggOp) *Dense {
	sel := op.Stats()
	p := m.ColPartialAggs(sel)
	out := NewDense(1, m.cols)
	for j := range out.data {
		out.data[j] = partialAt(p, sel, j).result(op, m.rows)
	}
	return out
}

// ColPartialAggs returns the column partials of m for the statistics sel
// selects: a sel.Len() x cols matrix with one row per selected statistic,
// in the order sum, sum of squares, minimum, maximum. A row is bit for bit
// ColAgg of AggSum, AggSumSq, AggMin or AggMax. Partitions' partials merge
// with CombinePartials.
func (m *Dense) ColPartialAggs(sel Stats) *Dense {
	c := m.cols
	sum, sumSq := make([]float64, c), make([]float64, c)
	mn, mx := filled(c, math.Inf(1)), filled(c, math.Inf(-1))
	if c > 0 {
		// One kernel per statistic set selected; sums of squares share the
		// kernel of sums and sums of squares.
		if sel&StatSumSq != 0 {
			colMoments(m.data, sum, sumSq)
		} else if sel&StatSum != 0 {
			colSums(m.data, sum)
		}
		if sel&StatMin != 0 {
			colMins(m.data, mn)
		}
		if sel&StatMax != 0 {
			colMaxs(m.data, mx)
		}
	}
	return stack(sel, c, sum, sumSq, mn, mx)
}

// PartialAgg returns the partial of all cells of m for the statistics sel
// selects: a sel.Len() x 1 matrix, laid out like ColPartialAggs of m's
// cells read as one column. Row r is bit for bit Agg of the r-th selected
// statistic.
func (m *Dense) PartialAgg(sel Stats) *Dense {
	s := fullStats(m.data, sel)
	return stack(sel, 1, []float64{s.sum}, []float64{s.sumSq}, []float64{s.mn}, []float64{s.mx})
}

// stack returns the statistic rows sel selects, each cols wide, as one
// partial; rows are given in statistic order.
func stack(sel Stats, cols int, rows ...[]float64) *Dense {
	out := &Dense{cols: cols, data: make([]float64, 0, sel.Len()*cols)}
	for i, r := range rows {
		if sel&(1<<i) != 0 {
			out.data = append(out.data, r...)
			out.rows++
		}
	}
	return out
}

// CombinePartials folds the partials of disjoint partitions into op's value
// per column: the coordinator-side merge of federated aggregates. parts[i]
// is partition i's op.Stats() partial (ColPartialAggs, or PartialAgg for a
// full aggregate) and counts[i] the cells each of its columns covers. The
// partials merge in partition order; the result is 1 x cols.
func CombinePartials(op AggOp, parts []*Dense, counts []int) (*Dense, error) {
	sel := op.Stats()
	if len(parts) == 0 || len(counts) != len(parts) {
		return nil, fmt.Errorf("matrix: %d partials with %d counts", len(parts), len(counts))
	}
	cols, n := parts[0].cols, 0
	for i, p := range parts {
		if p.rows != sel.Len() || p.cols != cols {
			return nil, fmt.Errorf("matrix: %s partial %d is %dx%d, want %dx%d", op, i, p.rows, p.cols, sel.Len(), cols)
		}
		n += counts[i]
	}
	out := NewDense(1, cols)
	for j := range out.data {
		acc := emptyStats()
		for _, p := range parts {
			acc.merge(partialAt(p, sel, j))
		}
		out.data[j] = acc.result(op, n)
	}
	return out, nil
}

// partialAt reads column j of p, a partial of the statistics sel selects.
func partialAt(p *Dense, sel Stats, j int) stats {
	s := emptyStats()
	r := 0
	for i, dst := range [...]*float64{&s.sum, &s.sumSq, &s.mn, &s.mx} {
		if sel&(1<<i) != 0 {
			*dst = p.data[r*p.cols+j]
			r++
		}
	}
	return s
}

// RowSums returns the rows x 1 vector of per-row sums.
func (m *Dense) RowSums() *Dense { return m.RowAgg(AggSum) }

// RowMins returns the rows x 1 vector of per-row minima.
func (m *Dense) RowMins() *Dense { return m.RowAgg(AggMin) }

// ColSums returns the 1 x cols vector of per-column sums.
func (m *Dense) ColSums() *Dense { return m.ColAgg(AggSum) }

// ColMeans returns the 1 x cols vector of per-column means.
func (m *Dense) ColMeans() *Dense { return m.ColAgg(AggMean) }

// RowIndexMax returns for each row the 1-based column index of its maximum
// value (DML rowIndexMax semantics).
func (m *Dense) RowIndexMax() *Dense {
	out := NewDense(m.rows, 1)
	parallelFor(m.rows, m.cols, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			best, arg := math.Inf(-1), 0
			for j, v := range row {
				if v > best {
					best, arg = v, j
				}
			}
			out.data[i] = float64(arg + 1)
		}
	})
	return out
}

// Trace returns the sum of diagonal cells of a square matrix.
func (m *Dense) Trace() float64 {
	if m.rows != m.cols {
		panic("matrix: trace of non-square matrix")
	}
	t := 0.0
	for i := 0; i < m.rows; i++ {
		t += m.data[i*m.cols+i]
	}
	return t
}
