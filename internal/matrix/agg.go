package matrix

import (
	"fmt"
	"math"
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

type aggState struct {
	sum, sumSq, mn, mx float64
	n                  int
}

func newAggState() aggState {
	return aggState{mn: math.Inf(1), mx: math.Inf(-1)}
}

func (s *aggState) add(v float64) {
	s.sum += v
	s.sumSq += v * v
	if v < s.mn {
		s.mn = v
	}
	if v > s.mx {
		s.mx = v
	}
	s.n++
}

func (s *aggState) merge(o aggState) {
	s.sum += o.sum
	s.sumSq += o.sumSq
	if o.mn < s.mn {
		s.mn = o.mn
	}
	if o.mx > s.mx {
		s.mx = o.mx
	}
	s.n += o.n
}

func (s *aggState) result(op AggOp) float64 {
	switch op {
	case AggSum:
		return s.sum
	case AggMin:
		return s.mn
	case AggMax:
		return s.mx
	case AggMean:
		return s.sum / float64(s.n)
	case AggVar:
		n := float64(s.n)
		return (s.sumSq - s.sum*s.sum/n) / (n - 1)
	case AggSD:
		n := float64(s.n)
		return math.Sqrt((s.sumSq - s.sum*s.sum/n) / (n - 1))
	case AggSumSq:
		return s.sumSq
	default:
		panic("matrix: unknown agg op")
	}
}

// Agg computes a full aggregation over all cells.
func (m *Dense) Agg(op AggOp) float64 {
	s := newAggState()
	for _, v := range m.data {
		s.add(v)
	}
	return s.result(op)
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
	parallelFor(m.rows, m.cols, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := newAggState()
			for _, v := range m.Row(i) {
				s.add(v)
			}
			out.data[i] = s.result(op)
		}
	})
	return out
}

// colStates builds every column's aggregation state in one row-major pass.
func (m *Dense) colStates() []aggState {
	states := make([]aggState, m.cols)
	for j := range states {
		states[j] = newAggState()
	}
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			states[j].add(v)
		}
	}
	return states
}

// ColAgg aggregates each column, returning a 1 x cols vector.
func (m *Dense) ColAgg(op AggOp) *Dense {
	out := NewDense(1, m.cols)
	for j, s := range m.colStates() {
		out.data[j] = s.result(op)
	}
	return out
}

// ColPartialAggs returns the 4 x cols column partials [sum; sumsq; min; max]
// from one pass over m; row r is bit for bit ColAgg of AggSum, AggSumSq,
// AggMin and AggMax respectively. Partitions' partials merge like
// PartialAgg's tuples.
func (m *Dense) ColPartialAggs() *Dense {
	c := m.cols
	out := NewDense(4, c)
	for j, s := range m.colStates() {
		out.data[j] = s.sum
		out.data[c+j] = s.sumSq
		out.data[2*c+j] = s.mn
		out.data[3*c+j] = s.mx
	}
	return out
}

// RowSums returns the rows x 1 vector of per-row sums.
func (m *Dense) RowSums() *Dense { return m.RowAgg(AggSum) }

// RowMins returns the rows x 1 vector of per-row minima.
func (m *Dense) RowMins() *Dense { return m.RowAgg(AggMin) }

// RowMaxs returns the rows x 1 vector of per-row maxima.
func (m *Dense) RowMaxs() *Dense { return m.RowAgg(AggMax) }

// RowMeans returns the rows x 1 vector of per-row means.
func (m *Dense) RowMeans() *Dense { return m.RowAgg(AggMean) }

// ColSums returns the 1 x cols vector of per-column sums.
func (m *Dense) ColSums() *Dense { return m.ColAgg(AggSum) }

// ColMins returns the 1 x cols vector of per-column minima.
func (m *Dense) ColMins() *Dense { return m.ColAgg(AggMin) }

// ColMaxs returns the 1 x cols vector of per-column maxima.
func (m *Dense) ColMaxs() *Dense { return m.ColAgg(AggMax) }

// ColMeans returns the 1 x cols vector of per-column means.
func (m *Dense) ColMeans() *Dense { return m.ColAgg(AggMean) }

// ColSDs returns the 1 x cols vector of per-column sample standard deviations.
func (m *Dense) ColSDs() *Dense { return m.ColAgg(AggSD) }

// ColVars returns the 1 x cols vector of per-column sample variances.
func (m *Dense) ColVars() *Dense { return m.ColAgg(AggVar) }

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

// PartialAgg returns the partial aggregation state of all cells so callers
// (e.g. the federated runtime) can combine partial results from disjoint
// partitions. The returned tuple is (sum, sumsq, min, max, count).
func (m *Dense) PartialAgg() (sum, sumSq, mn, mx float64, n int) {
	s := newAggState()
	for _, v := range m.data {
		s.add(v)
	}
	return s.sum, s.sumSq, s.mn, s.mx, s.n
}

// CombinePartialAggs folds partial aggregation tuples (as produced by
// PartialAgg) into the final value of op. It implements the coordinator-side
// merge of federated aggregates.
func CombinePartialAggs(op AggOp, sums, sumSqs, mins, maxs []float64, counts []int) float64 {
	s := newAggState()
	for i := range sums {
		s.merge(aggState{sum: sums[i], sumSq: sumSqs[i], mn: mins[i], mx: maxs[i], n: counts[i]})
	}
	return s.result(op)
}
