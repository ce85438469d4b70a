package matrix

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refState is the reference aggregation: one state per cell set that takes
// every statistic of every cell in order, as the single-kernel aggregates
// did before each statistic set had its own kernel.
type refState struct {
	sum, sumSq, mn, mx float64
	n                  int
}

func newRefState() refState { return refState{mn: math.Inf(1), mx: math.Inf(-1)} }

func (s *refState) add(v float64) {
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

func (s *refState) merge(o refState) {
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

func (s refState) result(op AggOp) float64 {
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
	default:
		return s.sumSq
	}
}

// stat returns the i-th statistic in partial order.
func (s refState) stat(i int) float64 {
	return [...]float64{s.sum, s.sumSq, s.mn, s.mx}[i]
}

func refFull(d []float64) refState {
	s := newRefState()
	for _, v := range d {
		s.add(v)
	}
	return s
}

func refCols(m *Dense) []refState {
	states := make([]refState, m.cols)
	for j := range states {
		states[j] = newRefState()
	}
	for i := 0; i < m.rows; i++ {
		for j, v := range m.Row(i) {
			states[j].add(v)
		}
	}
	return states
}

// refPartial is the reference partial of the statistics sel selects, one
// row per statistic, over per-column states.
func refPartial(sel Stats, states []refState) *Dense {
	out := NewDense(0, len(states))
	for i := 0; i < 4; i++ {
		if sel&(1<<i) != 0 {
			for _, s := range states {
				out.data = append(out.data, s.stat(i))
			}
			out.rows++
		}
	}
	return out
}

// sameAgg is sameBits with every NaN equal to every other. Which NaN a sum
// that meets two of them keeps depends on the operand order the compiler
// picks for a commutative add, which Go leaves open, so NaN payloads are
// not part of an aggregate's value; every other bit is.
func sameAgg(got, want *Dense) string {
	g, w := got.Clone(), want.Clone()
	for _, m := range []*Dense{g, w} {
		for i, v := range m.data {
			if math.IsNaN(v) {
				m.data[i] = math.NaN()
			}
		}
	}
	return sameBits(g, w)
}

var allAggOps = []AggOp{AggSum, AggMin, AggMax, AggMean, AggVar, AggSD, AggSumSq}

// fuzzCells draws a rows x cols matrix whose cells come from NaN, ±Inf, ±0,
// small integers and random values, picked by the bytes of pick.
func fuzzCells(rows, cols int, seed int64, pick []byte) *Dense {
	rng := rand.New(rand.NewSource(seed))
	m := NewDense(rows, cols)
	for i := range m.data {
		b := byte(rng.Intn(256))
		if i < len(pick) {
			b = pick[i]
		}
		switch k := b % 16; {
		case k == 0:
			m.data[i] = math.NaN()
		case k == 1:
			m.data[i] = math.Inf(1)
		case k == 2:
			m.data[i] = math.Inf(-1)
		case k == 3:
			m.data[i] = 0
		case k == 4:
			m.data[i] = math.Copysign(0, -1)
		case k < 12:
			m.data[i] = float64(int(k) - 8)
		default:
			m.data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
	return m
}

// checkAggKernels compares every aggregate of m with the reference pass,
// bitwise: full, row and column aggregates, the full and column partials
// of every op's statistics and of all of them, and the merge of the
// partials of m split into two row partitions at split.
func checkAggKernels(m *Dense, split int) error {
	full := refFull(m.data)
	cols := refCols(m)
	top, bottom := m.SliceRows(0, split), m.SliceRows(split, m.rows)
	parts := []refState{refFull(top.data), refFull(bottom.data)}
	colParts := [][]refState{refCols(top), refCols(bottom)}
	for _, sel := range []Stats{StatSum, StatSum | StatSumSq, StatSumSq, StatMin, StatMax, AllStats} {
		if d := sameAgg(m.PartialAgg(sel), refPartial(sel, []refState{full})); d != "" {
			return fmt.Errorf("PartialAgg(%b): %s", sel, d)
		}
		if d := sameAgg(m.ColPartialAggs(sel), refPartial(sel, cols)); d != "" {
			return fmt.Errorf("ColPartialAggs(%b): %s", sel, d)
		}
	}
	for _, op := range allAggOps {
		if d := sameAgg(Fill(1, 1, m.Agg(op)), Fill(1, 1, full.result(op))); d != "" {
			return fmt.Errorf("Agg(%v): %s", op, d)
		}
		rowWant := NewDense(m.rows, 1)
		for i := range rowWant.data {
			rowWant.data[i] = refFull(m.Row(i)).result(op)
		}
		if d := sameAgg(m.RowAgg(op), rowWant); d != "" {
			return fmt.Errorf("RowAgg(%v): %s", op, d)
		}
		colWant := NewDense(1, m.cols)
		for j, s := range cols {
			colWant.data[j] = s.result(op)
		}
		if d := sameAgg(m.ColAgg(op), colWant); d != "" {
			return fmt.Errorf("ColAgg(%v): %s", op, d)
		}

		sel := op.Stats()
		got, err := CombinePartials(op, []*Dense{top.PartialAgg(sel), bottom.PartialAgg(sel)},
			[]int{top.Size(), bottom.Size()})
		if err != nil {
			return err
		}
		merged := newRefState()
		for _, p := range parts {
			merged.merge(p)
		}
		if d := sameAgg(got, Fill(1, 1, merged.result(op))); d != "" {
			return fmt.Errorf("CombinePartials(%v) of full partials: %s", op, d)
		}
		got, err = CombinePartials(op, []*Dense{top.ColPartialAggs(sel), bottom.ColPartialAggs(sel)},
			[]int{top.rows, bottom.rows})
		if err != nil {
			return err
		}
		for j := range colWant.data {
			s := newRefState()
			for _, p := range colParts {
				s.merge(p[j])
			}
			colWant.data[j] = s.result(op)
		}
		if d := sameAgg(got, colWant); d != "" {
			return fmt.Errorf("CombinePartials(%v) of column partials: %s", op, d)
		}
	}
	return nil
}

// checkAggPaths runs checkAggKernels on the Go kernels and, where the CPU
// has AVX2, again on the assembly kernels.
func checkAggPaths(m *Dense, split int) error {
	defer func() { useAVX2 = haveAVX2 }()
	for _, vec := range []bool{false, true} {
		if vec && !haveAVX2 {
			break
		}
		useAVX2 = vec
		if err := checkAggKernels(m, split); err != nil {
			return fmt.Errorf("useAVX2 %v: %w", vec, err)
		}
	}
	return nil
}

// zeroTie returns the picks of n cells that are all fill except a zero of
// sign first at cell at and a zero of the other sign at cell later: under
// fuzzCells' picks 3 is +0, 4 is -0, 6 is -2 and 9 is 1.
func zeroTie(n, at, later int, first, fill byte) []byte {
	pick := make([]byte, n)
	for i := range pick {
		pick[i] = fill
	}
	pick[at], pick[later] = first, 7-first
	return pick
}

// FuzzAggKernels checks every aggregate kernel against the reference pass
// bit for bit, on the Go and on the AVX2 kernels: 0-17 rows (whole and
// ragged four-row sweeps) and 1-19 columns (every residue of the four-lane
// vector, and more than one 16-cell sweep of the full minimum and maximum)
// of NaN, ±Inf, ±0, small integers and random values. The seeds put ties
// of -0 and +0 in the first and in a later lane of the lane-merged extremes
// and fill matrices with NaN alone and with NaN beside ±Inf.
func FuzzAggKernels(f *testing.F) {
	f.Add(uint8(0), uint8(3), int64(1), []byte{})
	f.Add(uint8(4), uint8(1), int64(2), []byte{0, 1, 2, 3})
	f.Add(uint8(9), uint8(7), int64(3), []byte{4, 3, 4, 3, 0, 1, 2, 5, 11, 12})
	f.Add(uint8(5), uint8(2), int64(4), []byte{1, 2, 2, 1, 3, 4, 4, 3, 0, 0})
	// Minima over cells >= 0: the first zero sits in lane 0, or in a later
	// lane with the other sign in a later sweep's lane 0.
	f.Add(uint8(2), uint8(15), int64(5), zeroTie(32, 0, 5, 4, 9))
	f.Add(uint8(2), uint8(15), int64(6), zeroTie(32, 7, 16, 3, 9))
	// Maxima over cells <= 0, the same ties.
	f.Add(uint8(3), uint8(11), int64(7), zeroTie(36, 0, 9, 3, 6))
	f.Add(uint8(3), uint8(11), int64(8), zeroTie(36, 6, 32, 4, 6))
	// Every cell a zero, +0 first and -0 in every later lane.
	f.Add(uint8(4), uint8(4), int64(9), zeroTie(20, 0, 19, 3, 4))
	f.Add(uint8(5), uint8(17), int64(10), bytes.Repeat([]byte{0}, 90))
	f.Add(uint8(6), uint8(18), int64(11), bytes.Repeat([]byte{0, 1, 0, 2, 1, 0}, 19))
	f.Fuzz(func(t *testing.T, rows, cols uint8, seed int64, pick []byte) {
		m := fuzzCells(int(rows%18), 1+int(cols%19), seed, pick)
		split := int(uint64(seed) % uint64(m.rows+1))
		if err := checkAggPaths(m, split); err != nil {
			t.Fatalf("%dx%d split %d: %v\n%v", m.rows, m.cols, split, err, m.data)
		}
	})
}

// TestAggKernelsMatchReference runs the fuzz check over every shape the
// fuzz target draws, a few seeds each. It flips useAVX2, so it is not
// parallel.
func TestAggKernelsMatchReference(t *testing.T) {
	for rows := 0; rows < 18; rows++ {
		for cols := 1; cols <= 19; cols++ {
			for seed := int64(0); seed < 4; seed++ {
				m := fuzzCells(rows, cols, seed*31+int64(rows*7+cols), nil)
				if err := checkAggPaths(m, int(seed)%(rows+1)); err != nil {
					t.Fatalf("%dx%d seed %d: %v", rows, cols, seed, err)
				}
			}
		}
	}
}
